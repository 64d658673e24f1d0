//! The `staticheck` command line: mode selection, fixture loading,
//! allowlist application, rendering, exit codes.
//!
//! ```text
//! staticheck [policy|lints|all] [--format text|json] [--json]
//!            [--warnings] [--root DIR] [--only PREFIX]
//!            [--fixture FILE.json] [--allowlist FILE.toml]
//!            [--no-allowlist]
//! ```
//!
//! Default mode is `all`. Without a fixture, `policy` verifies every
//! built-in IXP scheme (members unknown, so SC003 is skipped — the
//! per-scenario member set is checked by the `repro check` pre-flight)
//! and cross-checks the eight dictionaries against each other (SC006).
//! `lints` runs both the token-level linter (SC103/SC104) and the
//! dataflow pass (SC107, SC109–SC112).
//!
//! Exit codes: 0 = clean, 1 = non-allowlisted error-grade findings
//! remain, 2 = internal/IO error (the analysis did not complete).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use community_dict::dictionary::Dictionary;
use community_dict::entry::DictionaryEntry;
use community_dict::ixp::IxpId;
use route_server::config::RsConfig;
use route_server::rules::ImportRule;

use crate::allow::Allowlist;
use crate::diag::{Diagnostic, Report};
use crate::{dataflow, diag, lints, policy};

/// A self-contained policy-verification scenario, loadable from JSON.
/// Used by the seeded-violation fixtures under `tests/fixtures/`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fixture {
    /// Which IXP's scheme to verify against.
    pub ixp: IxpId,
    /// Configured member ASNs; `None` skips SC003.
    #[serde(default)]
    pub members: Option<Vec<Asn>>,
    /// Import rules installed on the route server.
    #[serde(default)]
    pub rules: Vec<ImportRule>,
    /// Extra dictionary entries layered on top of the base.
    #[serde(default)]
    pub extra_entries: Vec<DictionaryEntry>,
    /// Verify against only `extra_entries` instead of the IXP's full
    /// scheme dictionary (keeps fixture expectations exact).
    #[serde(default)]
    pub empty_dict: bool,
    /// A second IXP whose dictionary (`drift_entries`) is cross-checked
    /// against this fixture's dictionary (SC006), when set.
    #[serde(default)]
    pub drift_ixp: Option<IxpId>,
    /// The second dictionary's entries for the SC006 cross-check.
    #[serde(default)]
    pub drift_entries: Vec<DictionaryEntry>,
}

impl Fixture {
    /// Run the policy verifier on this fixture.
    pub fn verify(&self) -> Vec<Diagnostic> {
        let config = RsConfig::for_ixp(self.ixp).with_import_rules(self.rules.clone());
        let mut entries = if self.empty_dict {
            Vec::new()
        } else {
            community_dict::schemes::dictionary(self.ixp)
                .entries()
                .to_vec()
        };
        entries.extend(self.extra_entries.iter().cloned());
        let dict = Dictionary::new(self.ixp, entries);
        let members: Option<BTreeSet<Asn>> =
            self.members.as_ref().map(|m| m.iter().copied().collect());
        let mut out = policy::verify(&config, &dict, members.as_ref());
        if let Some(other) = self.drift_ixp {
            let dicts = [dict, Dictionary::new(other, self.drift_entries.clone())];
            out.extend(policy::verify_cross_dictionaries(&dicts));
        }
        out
    }
}

/// Output format selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable, one finding per line.
    Text,
    /// The [`Report`] as JSON.
    Json,
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Options {
    mode: Mode,
    format: Format,
    warnings: bool,
    root: PathBuf,
    only: Option<String>,
    fixture: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    no_allowlist: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Policy,
    Lints,
    All,
}

/// The workspace root baked in at compile time; `--root` overrides.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        mode: Mode::All,
        format: Format::Text,
        warnings: false,
        root: default_root(),
        only: None,
        fixture: None,
        allowlist: None,
        no_allowlist: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "policy" => opts.mode = Mode::Policy,
            "lints" => opts.mode = Mode::Lints,
            "all" => opts.mode = Mode::All,
            "--json" => opts.format = Format::Json,
            "--format" => {
                let v = it.next().ok_or("--format needs text or json")?;
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format {other:?}\n{USAGE}")),
                };
            }
            "--warnings" => opts.warnings = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                opts.root = PathBuf::from(v);
            }
            "--only" => {
                let v = it.next().ok_or("--only needs a path prefix")?;
                opts.only = Some(v.clone());
            }
            "--fixture" => {
                let v = it.next().ok_or("--fixture needs a file")?;
                opts.fixture = Some(PathBuf::from(v));
            }
            "--allowlist" => {
                let v = it.next().ok_or("--allowlist needs a file")?;
                opts.allowlist = Some(PathBuf::from(v));
            }
            "--no-allowlist" => opts.no_allowlist = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

const USAGE: &str = "\
usage: staticheck [policy|lints|all] [options]

modes:
  policy           verify IXP schemes / a --fixture (SC001-SC006)
  lints            workspace lints + dataflow (SC103-SC112)
  all              both (default)

options:
  --format FMT     output format: text (default) or json
  --json           shorthand for --format json
  --warnings       include warning-grade findings in text output
  --root DIR       workspace root (default: this checkout)
  --only PREFIX    restrict lints/dataflow to files under PREFIX
                   (e.g. --only crates/staticheck/ for the self-lint)
  --fixture F.json verify a self-contained policy scenario
  --allowlist F    allowlist file (default: <root>/staticheck.toml)
  --no-allowlist   ignore the allowlist entirely
  --explain SCxxx  print the catalog entry for a diagnostic code
                   (rationale + waiver policy) and exit; unknown codes
                   exit 2

exit codes: 0 = clean, 1 = error-grade findings, 2 = internal error";

/// Policy findings for every built-in IXP scheme (members unknown),
/// plus the SC006 cross-dictionary drift check over all eight.
pub fn verify_builtin_schemes() -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut dicts = Vec::new();
    for ixp in IxpId::ALL {
        let config = RsConfig::for_ixp(ixp);
        let dict = community_dict::schemes::dictionary(ixp);
        out.extend(policy::verify(&config, &dict, None));
        dicts.push(dict);
    }
    out.extend(policy::verify_cross_dictionaries(&dicts));
    out
}

/// Run staticheck. Returns the process exit code; diagnostics go to
/// `stdout`, operational errors to `stderr`.
pub fn run(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return 0;
    }
    // `--explain SCxxx`: print the catalog entry and exit (2 on an
    // unknown code, so CI scripts notice typos)
    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        let Some(code) = args.get(pos + 1) else {
            eprintln!("staticheck: --explain needs a diagnostic code (e.g. SC109)");
            return 2;
        };
        return match diag::explain(code) {
            Some(text) => {
                print!("{text}");
                0
            }
            None => {
                eprintln!("staticheck: unknown diagnostic code {code:?}");
                2
            }
        };
    }
    match run_captured(args) {
        Ok((report, output)) => {
            match output.format {
                Format::Json => println!("{}", report.render_json()),
                Format::Text => print!("{}", report.render_text_with(output.warnings)),
            }
            report.exit_code()
        }
        Err(msg) => {
            eprintln!("staticheck: {msg}");
            2
        }
    }
}

/// How [`run`] should print the report.
#[derive(Debug, Clone)]
pub struct OutputOpts {
    /// Selected output format.
    pub format: Format,
    /// Include warning-severity findings in text output.
    pub warnings: bool,
}

/// The testable core of [`run`]: everything but printing and exiting.
pub fn run_captured(args: &[String]) -> Result<(Report, OutputOpts), String> {
    let opts = parse_args(args)?;
    let allowlist = if opts.no_allowlist {
        Allowlist::default()
    } else {
        let path = opts
            .allowlist
            .clone()
            .unwrap_or_else(|| opts.root.join("staticheck.toml"));
        Allowlist::load(&path).map_err(|e| e.to_string())?
    };

    let mut findings = Vec::new();
    if opts.mode != Mode::Lints {
        match &opts.fixture {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read fixture {}: {e}", path.display()))?;
                let fixture: Fixture = serde_json::from_str(&text)
                    .map_err(|e| format!("bad fixture {}: {e}", path.display()))?;
                findings.extend(fixture.verify());
            }
            None => findings.extend(verify_builtin_schemes()),
        }
    }
    if opts.mode != Mode::Policy {
        let only = opts.only.as_deref();
        findings.extend(lints::lint_workspace(&opts.root, only));
        findings.extend(dataflow::analyze(&opts.root, only));
    }

    let mut report = Report::default();
    for d in findings {
        if allowlist.waiver(&d).is_some() {
            report.allowed.push(d);
        } else {
            report.findings.push(d);
        }
    }
    Ok((
        report,
        OutputOpts {
            format: opts.format,
            warnings: opts.warnings,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn committed_tree_is_clean() {
        // the acceptance gate: `staticheck all` exits 0 on this repo
        let (report, _) = run_captured(&s(&["all"])).expect("run");
        assert_eq!(report.exit_code(), 0, "{}", report.render_text());
    }

    #[test]
    fn self_lint_is_clean_without_allowlist() {
        // the analyzer holds itself to its own rules, no waivers
        let (report, _) = run_captured(&s(&[
            "lints",
            "--only",
            "crates/staticheck/",
            "--no-allowlist",
        ]))
        .expect("run");
        assert_eq!(report.exit_code(), 0, "{}", report.render_text());
        assert!(report.allowed.is_empty());
    }

    #[test]
    fn unknown_argument_is_an_error() {
        assert!(run_captured(&s(&["--bogus"])).is_err());
        assert!(run_captured(&s(&["--format", "yaml"])).is_err());
    }

    #[test]
    fn output_flags_are_parsed() {
        let (_, out) = run_captured(&s(&["policy", "--json"])).expect("run");
        assert!(out.format == Format::Json && !out.warnings);
        let (_, out) = run_captured(&s(&["policy", "--warnings"])).expect("run");
        assert!(out.warnings && out.format == Format::Text);
        let (_, out) = run_captured(&s(&["policy", "--format", "json"])).expect("run");
        assert!(out.format == Format::Json);
    }

    #[test]
    fn fixture_round_trip() {
        let f = Fixture {
            ixp: IxpId::DeCixFra,
            members: Some(vec![Asn(64500)]),
            rules: Vec::new(),
            extra_entries: Vec::new(),
            empty_dict: true,
            drift_ixp: None,
            drift_entries: Vec::new(),
        };
        let text = serde_json::to_string(&f).expect("serialize");
        let back: Fixture = serde_json::from_str(&text).expect("parse");
        assert_eq!(back.ixp, IxpId::DeCixFra);
        assert!(back.empty_dict);
        assert!(back.verify().is_empty());
    }
}
