//! Diagnostics: stable codes, severities, locations, and rendering.
//!
//! Exit-code contract (enforced by [`crate::cli::run`], consumed by
//! `repro check` and `scripts/ci.sh`): **0** = clean (no non-allowlisted
//! error-grade findings), **1** = error-grade findings remain, **2** =
//! internal/IO error (bad arguments, unreadable fixture, malformed
//! allowlist) — the analysis itself did not run to completion.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// One-line description of a diagnostic code (the `--explain` headline).
pub fn describe(code: &str) -> &'static str {
    match code {
        "SC001" => "shadowed import rule: can never match",
        "SC002" => "contradictory actions on intersecting rule matchers",
        "SC003" => "action target has no session at the route server",
        "SC004" => "one community value parses under two semantics",
        "SC005" => "applied action can never take effect (import→action→export)",
        "SC006" => "cross-dictionary drift: one pattern, conflicting actions across IXPs",
        "SC103" => "metric/span name minted outside the obs::names registry",
        "SC104" => "obs::names registry is inconsistent",
        "SC107" => "hash-map iteration order can reach serialized output",
        "SC109" => "par-task closure captures or reaches interior mutability",
        "SC110" => "inconsistent lock-acquisition order across call chains",
        "SC111" => "Ordering::Relaxed atomic value flows into serialized output",
        "SC112" => "blocking call inside a par-task closure with no deadline",
        _ => "unknown diagnostic code",
    }
}

/// Full catalog entry for `staticheck --explain SCxxx`: rationale and
/// waiver policy, a few lines each. `None` for unknown codes (exit 2).
pub fn explain(code: &str) -> Option<String> {
    let (rationale, waiver) = match code {
        "SC001" => (
            "An import rule is dead when earlier rules jointly cover every\n\
             input it could match (exact interval arithmetic over AFI, prefix\n\
             length, peer, and community). Dead rules mislead operators about\n\
             what the route server actually does.",
            "Waive only for rules kept deliberately as documentation; say so.",
        ),
        "SC002" => (
            "Two rules whose matchers intersect apply contradictory actions to\n\
             the shared inputs; which one wins depends on evaluation order.",
            "Waive only when order-dependence is the documented intent.",
        ),
        "SC003" => (
            "An action community targeting an AS with no session at the route\n\
             server can never influence export — the paper's §5.5 static half.",
            "Waive for members expected to connect soon; name the member.",
        ),
        "SC004" => (
            "Two dictionary patterns give one community value two meanings;\n\
             resolution would depend on entry order, not semantics.",
            "Waive only when specificity precedence provably disambiguates.",
        ),
        "SC005" => (
            "An applied import-rule action that no export path consults is\n\
             configuration noise and usually a typo'd community value.",
            "Waive for staged rollouts where the export half lands later.",
        ),
        "SC006" => (
            "The same pattern maps to conflicting actions in different IXP\n\
             dictionaries, so cross-IXP comparisons silently disagree.",
            "Waive only with a citation for each IXP's documented semantics.",
        ),
        "SC103" => (
            "Metric/span names minted ad hoc drift from the obs::names\n\
             registry, breaking dashboards and the SC104 consistency check.",
            "No waivers: add the name to obs::names instead.",
        ),
        "SC104" => (
            "The obs::names registry must stay sorted, duplicate-free, and\n\
             referenced; an inconsistent registry invalidates SC103.",
            "No waivers: fix the registry.",
        ),
        "SC107" => (
            "HashMap/HashSet iteration order differs across processes; one\n\
             unsorted path into serialized output breaks every byte-identical\n\
             oracle (par equivalence, trace digests, golden fixtures).",
            "Waive only when the consumer is provably order-insensitive and a\n\
             BTree/sort rewrite is impractical; explain both.",
        ),
        "SC109" => (
            "A par-task closure (passed to par::map_indexed, thread::scope, or\n\
             a spawned handler) that captures or transitively reaches interior\n\
             mutability (RefCell, Cell, Mutex, RwLock, Atomic*, static mut,\n\
             thread_local!) makes task outcomes depend on scheduling. RefCell\n\
             and friends additionally panic on cross-thread borrow collisions.\n\
             Unsynchronized types are errors; lock/atomic types are warnings\n\
             (safe, but still a determinism hazard worth a look).",
            "Waiverable only via staticheck.toml with a determinism argument:\n\
             the reason must explain why every interleaving produces identical\n\
             output (e.g. commutative monotonic counters merged post-join).",
        ),
        "SC110" => (
            "Two call chains that acquire the same pair of locks in opposite\n\
             orders can deadlock under concurrent execution — the classic\n\
             hazard for the multi-client looking-glass serving path. The check\n\
             collects per-function lock sequences (strict `let guard = ..`\n\
             bindings only) and propagates them through the call graph.",
            "Waive only when the two chains provably never run concurrently;\n\
             name the serialization mechanism.",
        ),
        "SC111" => (
            "An atomic read with Ordering::Relaxed carries no happens-before\n\
             edge: the value observed depends on the CPU and the scheduler.\n\
             Letting it flow into serialized output, metrics asserted by\n\
             tests, or trace digests makes byte-identity runs flaky.",
            "Waive with an output-invariance argument: the value must be\n\
             provably identical at the read point in every execution (e.g.\n\
             read after all writers joined).",
        ),
        "SC112" => (
            "A blocking call (stream read/write, sleep, pace, recv) inside a\n\
             par-task closure with no timeout/deadline anywhere on the chain\n\
             lets one straggler serialize the whole pool: the ordered join\n\
             waits for every task.",
            "Waive with the bound: why the blocking call terminates promptly\n\
             (bounded input, local socket) or why stalling is acceptable.",
        ),
        _ => return None,
    };
    Some(format!(
        "{code}: {}\n\nrationale:\n{rationale}\n\nwaiver policy:\n{waiver}\n",
        describe(code)
    ))
}

/// How bad a finding is. Only non-allowlisted [`Severity::Error`]
/// findings fail the build; warnings are reported but never gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Worth knowing; does not fail CI.
    Warning,
    /// A real defect; fails CI unless allowlisted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One finding. `code` is stable across releases (SC0xx = policy
/// verifier, SC1xx = workspace linter) so allowlists and CI greps
/// never chase renames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable diagnostic code (`SC001`, `SC103`, ...).
    pub code: String,
    /// Error or warning.
    pub severity: Severity,
    /// Where: `path:line` for lints, rule/entry descriptor for policy.
    pub location: String,
    /// What and why, one line.
    pub message: String,
}

impl Diagnostic {
    /// Construct a finding.
    pub fn new(
        code: &str,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code: code.to_string(),
            severity,
            location: location.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity, self.code, self.message, self.location
        )
    }
}

/// A finished run: every finding plus which ones the allowlist waived.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// Findings that count (not allowlisted).
    pub findings: Vec<Diagnostic>,
    /// Findings waived by `staticheck.toml`.
    pub allowed: Vec<Diagnostic>,
}

impl Report {
    /// Number of gating (error-severity, non-allowlisted) findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Exit code for a CI gate: zero only when no errors remain.
    pub fn exit_code(&self) -> i32 {
        if self.error_count() == 0 {
            0
        } else {
            1
        }
    }

    /// Human-readable rendering, one finding per line, summary last.
    pub fn render_text(&self) -> String {
        self.render_text_with(true)
    }

    /// Text rendering with warnings optionally elided (the summary line
    /// always carries the counts; `--json` always carries everything).
    pub fn render_text_with(&self, show_warnings: bool) -> String {
        let mut out = String::new();
        for d in &self.findings {
            if show_warnings || d.severity == Severity::Error {
                out.push_str(&d.to_string());
                out.push('\n');
            }
        }
        let warnings = self.findings.len() - self.error_count();
        if !show_warnings && warnings > 0 {
            out.push_str("(warnings elided; pass --warnings or --json to see them)\n");
        }
        let counts = self.counts_by_code();
        if !counts.is_empty() {
            let parts: Vec<String> = counts
                .iter()
                .map(|(code, n)| format!("{code}={n}"))
                .collect();
            out.push_str(&format!("per-check: {}\n", parts.join(" ")));
        }
        out.push_str(&format!(
            "staticheck: {} error(s), {} warning(s), {} allowlisted\n",
            self.error_count(),
            warnings,
            self.allowed.len()
        ));
        out
    }

    /// Finding counts per diagnostic code (allowlisted ones excluded),
    /// sorted by code — the `per-check:` summary line CI parses.
    pub fn counts_by_code(&self) -> BTreeMap<&str, usize> {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for d in &self.findings {
            *counts.entry(d.code.as_str()).or_default() += 1;
        }
        counts
    }

    /// JSON rendering (machine-readable CI artifact).
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_gates_on_errors_only() {
        let mut r = Report::default();
        r.findings
            .push(Diagnostic::new("SC004", Severity::Warning, "x", "warn"));
        assert_eq!(r.exit_code(), 0);
        r.findings
            .push(Diagnostic::new("SC001", Severity::Error, "y", "err"));
        assert_eq!(r.exit_code(), 1);
        assert_eq!(r.error_count(), 1);
    }

    #[test]
    fn text_rendering_mentions_code_and_location() {
        let mut r = Report::default();
        r.findings.push(Diagnostic::new(
            "SC002",
            Severity::Error,
            "rule 'a' vs rule 'b'",
            "contradictory actions",
        ));
        let text = r.render_text();
        assert!(text.contains("SC002"));
        assert!(text.contains("rule 'a' vs rule 'b'"));
        assert!(text.contains("1 error(s)"));
    }

    #[test]
    fn json_round_trips() {
        let mut r = Report::default();
        r.findings
            .push(Diagnostic::new("SC003", Severity::Error, "loc", "msg"));
        let parsed: Report = serde_json::from_str(&r.render_json()).unwrap();
        assert_eq!(parsed.findings, r.findings);
    }
}
