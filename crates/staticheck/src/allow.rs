//! The `staticheck.toml` allowlist.
//!
//! Sanctioned exceptions live in one file at the repository root. The
//! container is offline and the workspace has no `toml` crate, so this
//! module parses the small TOML subset the allowlist needs:
//!
//! ```toml
//! [[allow]]
//! code = "SC111"
//! path = "crates/par/src/lib.rs"
//! reason = "the ordered join sorts results back by index"
//! ```
//!
//! Keys: `code` (required), `path` (optional substring of the
//! diagnostic's location), `location` (optional second substring, e.g.
//! a line number), `reason` (required — undocumented waivers defeat
//! the point). Anything else in the file — comments, blank lines,
//! unrelated tables — is ignored.

use std::path::Path;

use crate::diag::Diagnostic;

/// One sanctioned exception.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllowEntry {
    /// Diagnostic code this entry waives (exact match).
    pub code: String,
    /// Substring the diagnostic location must contain, if set.
    pub path: String,
    /// Second location substring (e.g. `:252`), if set.
    pub location: String,
    /// Why this exception is sanctioned.
    pub reason: String,
}

impl AllowEntry {
    /// Does this entry waive `d`?
    pub(crate) fn covers(&self, d: &Diagnostic) -> bool {
        if self.code != d.code {
            return false;
        }
        if !self.path.is_empty() && !d.location.contains(&self.path) {
            return false;
        }
        if !self.location.is_empty() && !d.location.contains(&self.location) {
            return false;
        }
        true
    }
}

/// The parsed allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// All `[[allow]]` entries, in file order.
    pub entries: Vec<AllowEntry>,
}

/// A malformed allowlist file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AllowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "staticheck.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for AllowError {}

impl Allowlist {
    /// Load from a file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Result<Self, AllowError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Ok(Allowlist::default()),
        }
    }

    /// Parse allowlist text (the TOML subset described in the module doc).
    pub(crate) fn parse(text: &str) -> Result<Self, AllowError> {
        let mut entries = Vec::new();
        let mut current: Option<AllowEntry> = None;
        let mut in_allow = false;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line.starts_with("[[") || line.starts_with('[') {
                if let Some(e) = current.take() {
                    push_entry(e, lineno, &mut entries)?;
                }
                in_allow = line == "[[allow]]";
                if in_allow {
                    current = Some(AllowEntry::default());
                }
                continue;
            }
            if !in_allow {
                continue;
            }
            let Some((key, value)) = parse_kv(&line) else {
                return Err(AllowError {
                    line: lineno,
                    message: format!("expected `key = \"value\"`, got {line:?}"),
                });
            };
            let Some(e) = current.as_mut() else {
                continue;
            };
            match key.as_str() {
                "code" => e.code = value,
                "path" => e.path = value,
                "location" => e.location = value,
                "reason" => e.reason = value,
                other => {
                    return Err(AllowError {
                        line: lineno,
                        message: format!("unknown allowlist key {other:?}"),
                    });
                }
            }
        }
        if let Some(e) = current.take() {
            let last = text.lines().count();
            push_entry(e, last, &mut entries)?;
        }
        Ok(Allowlist { entries })
    }

    /// First entry covering `d`, if any.
    pub fn waiver(&self, d: &Diagnostic) -> Option<&AllowEntry> {
        self.entries.iter().find(|e| e.covers(d))
    }
}

fn push_entry(
    e: AllowEntry,
    lineno: usize,
    entries: &mut Vec<AllowEntry>,
) -> Result<(), AllowError> {
    if e.code.is_empty() {
        return Err(AllowError {
            line: lineno,
            message: "[[allow]] entry is missing `code`".to_string(),
        });
    }
    if e.reason.is_empty() {
        return Err(AllowError {
            line: lineno,
            message: format!("[[allow]] entry for {} is missing `reason`", e.code),
        });
    }
    // SC109 sanctions shared mutable state inside a parallel task; the
    // only acceptable justification is an argument that the final output
    // is deterministic anyway. Enforce at parse time so an undocumented
    // waiver cannot silently neuter the check.
    if e.code == "SC109" && !e.reason.to_ascii_lowercase().contains("determinis") {
        return Err(AllowError {
            line: lineno,
            message: format!(
                "[[allow]] entry for SC109 must make a determinism argument \
                 (reason {:?} never mentions determinism)",
                e.reason
            ),
        });
    }
    entries.push(e);
    Ok(())
}

/// Drop a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `key = "value"`.
fn parse_kv(line: &str) -> Option<(String, String)> {
    let (key, rest) = line.split_once('=')?;
    let value = rest.trim();
    let value = value.strip_prefix('"')?.strip_suffix('"')?;
    Some((key.trim().to_string(), value.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    const SAMPLE: &str = r#"
# staticheck allowlist
[[allow]]
code = "SC107"
path = "crates/bgp-model/src/prefix.rs"
reason = "static tables"   # trailing comment

[[allow]]
code = "SC112"
path = "crates/looking-glass/src/transport.rs"
location = ":40"
reason = "real-time transport"
"#;

    fn diag(code: &str, location: &str) -> Diagnostic {
        Diagnostic::new(code, Severity::Error, location, "m")
    }

    #[test]
    fn parses_and_matches() {
        let a = Allowlist::parse(SAMPLE).unwrap();
        assert_eq!(a.entries.len(), 2);
        assert!(a
            .waiver(&diag("SC107", "crates/bgp-model/src/prefix.rs:252"))
            .is_some());
        // wrong code
        assert!(a
            .waiver(&diag("SC103", "crates/bgp-model/src/prefix.rs:252"))
            .is_none());
        // wrong path
        assert!(a
            .waiver(&diag("SC107", "crates/obs/src/lib.rs:1"))
            .is_none());
        // location substring must match too
        assert!(a
            .waiver(&diag("SC112", "crates/looking-glass/src/transport.rs:40"))
            .is_some());
        assert!(a
            .waiver(&diag("SC112", "crates/looking-glass/src/transport.rs:99"))
            .is_none());
    }

    #[test]
    fn missing_reason_is_rejected() {
        let bad = "[[allow]]\ncode = \"SC107\"\n";
        assert!(Allowlist::parse(bad).is_err());
    }

    #[test]
    fn missing_code_is_rejected() {
        let bad = "[[allow]]\nreason = \"because\"\n";
        assert!(Allowlist::parse(bad).is_err());
    }

    #[test]
    fn missing_file_is_empty() {
        let a = Allowlist::load(Path::new("/nonexistent/staticheck.toml")).unwrap();
        assert!(a.entries.is_empty());
    }

    #[test]
    fn unknown_key_is_rejected() {
        let bad = "[[allow]]\ncode = \"SC107\"\nreason = \"r\"\nfoo = \"bar\"\n";
        assert!(Allowlist::parse(bad).is_err());
    }
}
