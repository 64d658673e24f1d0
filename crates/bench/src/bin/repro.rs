//! `repro` — regenerate every table and figure of the paper from the
//! synthetic world, printing measured values side by side with the
//! paper's published numbers.
//!
//! ```text
//! repro [--scale 0.1] [--seed 29360094] [--all-ixps] [--csv DIR] [EXPERIMENT...]
//! ```
//!
//! With `--csv DIR`, every figure additionally writes its data series as
//! a CSV file under DIR — the exact numbers behind each plot. With
//! `--json FILE`, the complete evaluation ([`analysis::summary`]) is
//! written as one JSON document.
//!
//! The experiments are the [`EXPERIMENTS`] table (`--help` lists them);
//! `all` is the default. `check` is a pre-flight: it runs the
//! `staticheck` policy verifier over every configured IXP scheme before
//! the world is built, and error-grade findings abort the whole run —
//! there is no point simulating a configuration the verifier can
//! already prove broken.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bgp_model::prefix::Afi;
use community_dict::action::ActionGroup;
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::known;

use analysis::prelude::*;
use bench::{paper, standard_scenario, AFIS};
use ixp_sim::timeline::{generate_all, Series, TimelineConfig};
use looking_glass::sanitize::SeriesPoint;
use looking_glass::snapshot::SnapshotStore;

struct Ctx {
    store: SnapshotStore,
    dicts: Vec<(IxpId, Dictionary)>,
    /// The aggregates of every (IXP, family) in `store`, folded once per
    /// run; every `run_*` experiment reads its figures off these.
    views: BTreeMap<(IxpId, Afi), View>,
    ixps: Vec<IxpId>,
    seed: u64,
    csv_dir: Option<PathBuf>,
}

impl Ctx {
    fn new(
        store: SnapshotStore,
        dicts: Vec<(IxpId, Dictionary)>,
        ixps: Vec<IxpId>,
        seed: u64,
        csv_dir: Option<PathBuf>,
    ) -> Self {
        let views = dicts
            .iter()
            .flat_map(|(ixp, dict)| AFIS.map(|afi| (*ixp, afi, dict)))
            .filter_map(|(ixp, afi, dict)| {
                let snap = store.latest(ixp, afi)?;
                Some(((ixp, afi), View::new(snap, dict)))
            })
            .collect();
        Ctx {
            store,
            dicts,
            views,
            ixps,
            seed,
            csv_dir,
        }
    }

    fn view(&self, ixp: IxpId, afi: Afi) -> Option<&View> {
        self.views.get(&(ixp, afi))
    }

    /// The IPv4 view of each IXP that has one, in `ixps` order.
    fn v4_views(&self) -> impl Iterator<Item = (IxpId, &View)> {
        self.ixps
            .iter()
            .filter_map(|ixp| Some((*ixp, self.view(*ixp, Afi::Ipv4)?)))
    }

    /// Write one figure's data series as CSV under --csv DIR.
    fn csv(&self, name: &str, headers: &[&str], rows: &[Vec<String>]) {
        let Some(dir) = &self.csv_dir else { return };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("csv: cannot create {}: {e}", dir.display());
            return;
        }
        let mut out = headers.join(",");
        out.push('\n');
        for row in rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            out.push_str(&escaped.join(","));
            out.push('\n');
        }
        write_artifact("csv", &dir.join(format!("{name}.csv")), out);
    }
}

/// Write one output file, reporting the outcome on stderr under `tag`.
fn write_artifact(tag: &str, path: &Path, bytes: impl AsRef<[u8]>) {
    match std::fs::write(path, bytes) {
        Ok(()) => eprintln!("{tag}: wrote {}", path.display()),
        Err(e) => eprintln!("{tag}: cannot write {}: {e}", path.display()),
    }
}

/// How an experiment runs.
#[derive(Clone, Copy)]
enum Runner {
    /// A pre-flight over the configured IXPs: it runs before anything is
    /// built, and refuses to let the run spend time on a provably broken
    /// policy (it exits instead of returning).
    Preflight(fn(&[IxpId])),
    /// Prints its tables (and CSVs) from the run context.
    Report(fn(&Ctx)),
}

use Runner::{Preflight, Report};

/// One experiment `repro` can run.
struct Experiment {
    name: &'static str,
    /// Part of `all`, the default selection.
    in_all: bool,
    /// Reads the built world (`Ctx::store` / `Ctx::views`).
    needs_world: bool,
    run: Runner,
    /// One line for `--help`.
    about: &'static str,
}

/// An [`Experiment`] from positional fields, so the table below keeps
/// one row per experiment.
const fn exp(
    name: &'static str,
    in_all: bool,
    needs_world: bool,
    run: Runner,
    about: &'static str,
) -> Experiment {
    Experiment {
        name,
        in_all,
        needs_world,
        run,
        about,
    }
}

/// Every experiment, in the order `all` runs them. This table is the
/// only place an experiment is named: it drives `--help`, `all`, the
/// decision to build the world, and the dispatch.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    exp("check",       true,  false, Preflight(preflight_check), "static policy pre-flight; findings abort the run"),
    exp("table1",      true,  true,  Report(run_table1),         "the IXPs in numbers"),
    exp("fig1",        true,  true,  Report(run_fig1),           "IXP-defined vs unknown communities"),
    exp("fig2",        true,  true,  Report(run_fig2),           "community types among IXP-defined"),
    exp("fig3",        true,  true,  Report(run_fig3),           "action vs informational"),
    exp("fig4a",       true,  true,  Report(run_fig4a),          "ASes and routes using action communities"),
    exp("fig4b",       true,  true,  Report(run_fig4b),          "skew of action-community usage across ASes"),
    exp("fig4c",       true,  true,  Report(run_fig4c),          "route share vs action share"),
    exp("table2",      true,  true,  Report(run_table2),         "ASes using each action type"),
    exp("type-counts", true,  true,  Report(run_type_counts),    "action instances per type"),
    exp("fig5",        true,  true,  Report(run_fig5),           "top-20 action communities"),
    exp("fig6",        true,  true,  Report(run_fig6),           "top-20 actions targeting non-RS members"),
    exp("ineffective", true,  true,  Report(run_ineffective),    "actions targeting ASes not at the RS"),
    exp("fig7",        true,  true,  Report(run_fig7),           "top-10 ASes tagging non-RS-member targets"),
    exp("table3",      true,  false, Report(run_table3),         "variation across seven daily snapshots"),
    exp("table4",      true,  false, Report(run_table4),         "variation across twelve weekly snapshots"),
    exp("sanitation",  true,  false, Report(run_sanitation),     "snapshot sanitation (valley detection)"),
    exp("overlap",     true,  true,  Report(run_overlap),        "cross-IXP overlap of top-20 avoid targets"),
    exp("chaos",       false, false, Report(run_chaos),          "fault-injection corpus (CHAOS_SEEDS=N seeds)"),
    exp("stream",      false, false, Report(run_stream),         "feed-vs-poll campaign and verdicts (STREAM_DAYS=N days)"),
];

fn usage() -> String {
    let mut out = String::from(
        "repro [--scale F] [--seed N] [--all-ixps] [--csv DIR] [--json FILE] \
         [--trace FILE] [EXPERIMENT...]\n\
         --trace FILE: record the causal span trace and write it as Chrome \
         trace_event JSON (open in Perfetto), plus a self-time table\n\
         experiments (default: all):\n",
    );
    for e in EXPERIMENTS {
        let tag = if e.in_all { "" } else { "(not in `all`) " };
        out.push_str(&format!("  {:<12} {tag}{}\n", e.name, e.about));
    }
    out.push_str("  all          every experiment not marked otherwise, in this order");
    out
}

fn main() {
    let mut scale = 0.1f64;
    let mut seed = 0x1C0FFEEu64;
    let mut ixps: Vec<IxpId> = IxpId::BIG_FOUR.to_vec();
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => scale = flag_value(&arg, it.next(), "a scale factor (f64)"),
            "--seed" => seed = flag_value(&arg, it.next(), "a seed (u64)"),
            "--all-ixps" => ixps = IxpId::ALL.to_vec(),
            "--csv" => csv_dir = Some(flag_value(&arg, it.next(), "a directory")),
            "--json" => json_out = Some(flag_value(&arg, it.next(), "a file path")),
            "--trace" => trace_out = Some(flag_value(&arg, it.next(), "a file path")),
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            _ => names.push(arg),
        }
    }
    // every name is checked before anything is built
    let unknown: Vec<&String> = names
        .iter()
        .filter(|n| *n != "all" && !EXPERIMENTS.iter().any(|e| e.name == n.as_str()))
        .collect();
    if !unknown.is_empty() {
        for n in unknown {
            eprintln!("unknown experiment: {n}");
        }
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    let experiments: Vec<&Experiment> = if names.is_empty() || names.iter().any(|n| n == "all") {
        EXPERIMENTS.iter().filter(|e| e.in_all).collect()
    } else {
        names
            .iter()
            .filter_map(|n| EXPERIMENTS.iter().find(|e| e.name == n.as_str()))
            .collect()
    };

    let registry = obs::global();
    registry.enable_events(4096);
    if trace_out.is_some() {
        registry.enable_tracing();
        let _ = registry.take_trace_spans(); // fresh trace epoch
    }
    let baseline = registry.snapshot();

    // pre-flights run before anything is built
    for e in &experiments {
        if let Preflight(run) = e.run {
            let _stage = registry.histogram(&obs::names::repro_stage(e.name)).start();
            run(&ixps);
        }
    }

    let (store, dicts) = if experiments.iter().any(|e| e.needs_world) {
        eprintln!(
            "building world (scale {scale}, seed {seed}, {} IXPs, {} worker thread(s))...",
            ixps.len(),
            par::threads()
        );
        let _stage = registry.histogram(obs::names::REPRO_BUILD_WORLD).start();
        standard_scenario(seed, scale, &ixps)
    } else {
        (SnapshotStore::new(), Vec::new())
    };
    let dicts = ixps.iter().copied().zip(dicts).collect();
    let ctx = Ctx::new(store, dicts, ixps, seed, csv_dir.clone());

    if let Some(path) = &json_out {
        // the machine-readable counterpart: every analysis, one JSON file
        let report = analysis::summary::full_report(&ctx.store, &ctx.dicts);
        match serde_json::to_vec_pretty(&report) {
            Ok(bytes) => write_artifact("json", path, bytes),
            Err(e) => eprintln!("json: encode failed: {e}"),
        }
    }

    for e in &experiments {
        if let Report(run) = e.run {
            let _stage = registry.histogram(&obs::names::repro_stage(e.name)).start();
            run(&ctx);
        }
    }

    // Per-stage telemetry: what this run did, end to end. The report shows
    // everything recorded since the baseline taken at startup; the JSON
    // snapshot lands next to the tables (under --csv DIR when given).
    let telemetry = registry.snapshot().diff(&baseline);
    println!("=== run telemetry ===");
    print!("{}", obs::render_report(&telemetry, 10));
    let telemetry_path = match &csv_dir {
        Some(dir) if dir.is_dir() || std::fs::create_dir_all(dir).is_ok() => {
            dir.join("telemetry.json")
        }
        _ => PathBuf::from("telemetry.json"),
    };
    write_artifact("telemetry", &telemetry_path, telemetry.to_json());

    // With --trace: export the causal span tree (Perfetto-loadable) and
    // print where the wall time actually went.
    if let Some(path) = &trace_out {
        let spans = registry.take_trace_spans();
        match std::fs::write(path, obs::trace::chrome_trace_json(&spans)) {
            Ok(()) => eprintln!(
                "trace: wrote {} ({} spans; open in Perfetto / chrome://tracing)",
                path.display(),
                spans.len()
            ),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
        println!("=== self-time profile (top 10) ===");
        print!(
            "{}",
            obs::trace::render_self_time(&obs::trace::self_time_table(&spans), 10)
        );
    }
}

/// A malformed command-line flag or env override: print `what` and what
/// was `expected`, and exit 2 instead of panicking or running a default.
fn usage_error(what: std::fmt::Arguments, expected: &str) -> ! {
    eprintln!("{what}: expected {expected}");
    std::process::exit(2);
}

/// The value after `flag`, parsed; missing or unparseable exits 2.
fn flag_value<T: std::str::FromStr>(flag: &str, raw: Option<String>, expected: &str) -> T {
    let Some(raw) = raw else {
        usage_error(format_args!("{flag}"), expected)
    };
    raw.parse()
        .unwrap_or_else(|_| usage_error(format_args!("{flag}={raw:?}"), expected))
}

/// Read a numeric env override: unset keeps `default`; set but
/// unparseable exits 2 naming the variable, its value and `expected`,
/// instead of silently running the default.
fn env_override<T: std::str::FromStr>(var: &str, expected: &str, default: T) -> T {
    let Some(raw) = std::env::var_os(var) else {
        return default;
    };
    match raw.to_str().and_then(|s| s.parse().ok()) {
        Some(v) => v,
        None => usage_error(format_args!("{var}={raw:?}"), expected),
    }
}

/// `repro check`: run [`run_check`] and exit on anything but a clean
/// verdict — 2 when the verification itself did not complete, 1 when
/// error-grade findings remain.
fn preflight_check(ixps: &[IxpId]) {
    match run_check(ixps) {
        Err(msg) => {
            // staticheck's exit 2: the analysis itself did not run
            eprintln!(
                "check: static verification did not complete ({msg}) — an \
                 internal error, not a policy finding; fix staticheck.toml \
                 syntax and rerun"
            );
            std::process::exit(2);
        }
        Ok(false) => {
            // staticheck's exit 1: real error-grade findings remain
            eprintln!(
                "check: error-grade policy findings — fix the scheme or waive \
                 the finding in staticheck.toml before reproducing results"
            );
            std::process::exit(1);
        }
        Ok(true) => {}
    }
}

/// Pre-flight: statically verify every configured IXP's route-server
/// config + dictionary with `staticheck` before building any world,
/// then cross-check the dictionaries against each other (SC006). The
/// workspace sources are not scanned here: `scripts/ci.sh` runs
/// `staticheck lints` beside clippy. The repo allowlist
/// (`staticheck.toml`) is honored, mirroring the CLI gate. `Ok(false)`
/// means error-grade findings remain (staticheck exit 1); `Err` means
/// the verification itself failed (staticheck exit 2) — a malformed
/// allowlist, not a policy finding.
fn run_check(ixps: &[IxpId]) -> Result<bool, String> {
    let allow_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../staticheck.toml");
    let allow = staticheck::Allowlist::load(&allow_path).map_err(|e| e.to_string())?;
    let gating = |diags: &[staticheck::Diagnostic]| -> Vec<staticheck::Diagnostic> {
        diags
            .iter()
            .filter(|d| d.severity == staticheck::Severity::Error && allow.waiver(d).is_none())
            .cloned()
            .collect()
    };
    let mut t = TextTable::new(
        "pre-flight — static policy verification (staticheck)",
        &["IXP", "Errors", "Warnings", "Status"],
    );
    let mut clean = true;
    // one row per scope: its gating findings are errors, the rest warnings
    let mut tally = |scope: &str, diags: &[staticheck::Diagnostic]| {
        let errors = gating(diags);
        for d in &errors {
            eprintln!("check: {scope} {d}");
        }
        clean &= errors.is_empty();
        t.row([
            scope.to_string(),
            errors.len().to_string(),
            (diags.len() - errors.len()).to_string(),
            if errors.is_empty() { "ok" } else { "FAIL" }.to_string(),
        ]);
    };
    let mut dicts = Vec::new();
    for ixp in ixps {
        let config = route_server::config::RsConfig::for_ixp(*ixp);
        let dict = community_dict::schemes::dictionary(*ixp);
        tally(
            ixp.short_name(),
            &staticheck::policy::verify(&config, &dict, None),
        );
        dicts.push(dict);
    }
    tally(
        "cross-IXP",
        &staticheck::policy::verify_cross_dictionaries(&dicts),
    );
    println!("{}", t.render());
    Ok(clean)
}

fn run_table1(ctx: &Ctx) {
    let mut t = TextTable::new(
        "Table 1 — the IXPs in numbers (latest snapshot, scaled world)",
        &[
            "IXP",
            "Location",
            "MembRS-v4",
            "MembRS-v6",
            "Pfx-v4",
            "Pfx-v6",
            "Routes-v4",
            "Routes-v6",
        ],
    );
    for ixp in &ctx.ixps {
        let (Some(v4), Some(v6)) = (
            ctx.store.latest(*ixp, Afi::Ipv4),
            ctx.store.latest(*ixp, Afi::Ipv6),
        ) else {
            continue;
        };
        let row = table1_row(v4, v6);
        t.row([
            ixp.short_name().to_string(),
            row.location.clone(),
            row.members_rs.0.to_string(),
            row.members_rs.1.to_string(),
            row.prefixes.0.to_string(),
            row.prefixes.1.to_string(),
            row.routes.0.to_string(),
            row.routes.1.to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// One table row per (IXP, family) with a view: the IXP and family
/// cells, then `cells(ixp, afi, view)`, then — when `paper` is given —
/// the paper's IPv4 value (empty on IPv6 and where the paper has none).
/// `headers` name the columns after IXP and AFI.
fn unit_table(
    ctx: &Ctx,
    title: &str,
    headers: &[&str],
    paper: Option<fn(IxpId) -> Option<String>>,
    mut cells: impl FnMut(IxpId, Afi, &View) -> Vec<String>,
) {
    let headers: Vec<&str> = ["IXP", "AFI"].iter().chain(headers).copied().collect();
    let mut t = TextTable::new(title, &headers);
    for ixp in &ctx.ixps {
        for afi in AFIS {
            let Some(view) = ctx.view(*ixp, afi) else {
                continue;
            };
            let mut row = vec![ixp.short_name().to_string(), afi.to_string()];
            row.extend(cells(*ixp, afi, view));
            if let Some(paper) = paper {
                row.push(match afi {
                    Afi::Ipv4 => paper(*ixp).unwrap_or_default(),
                    Afi::Ipv6 => String::new(),
                });
            }
            t.row(row);
        }
    }
    println!("{}", t.render());
}

fn run_fig1(ctx: &Ctx) {
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    unit_table(
        ctx,
        "Fig. 1 — IXP-defined vs unknown communities",
        &["Total", "Defined%", "Unknown%", "Paper(def/unk v4)"],
        Some(|ixp| paper::fig1_v4(ixp).map(|(d, u)| format!("{d:.1}/{u:.1}"))),
        |ixp, afi, view| {
            let f = fig1(view);
            csv_rows.push(vec![
                ixp.short_name().to_string(),
                afi.to_string(),
                f.total.to_string(),
                f.ixp_defined.to_string(),
                f.unknown.to_string(),
            ]);
            vec![
                human_count(f.total),
                pct1(f.defined_pct()),
                pct1(f.unknown_pct()),
            ]
        },
    );
    ctx.csv(
        "fig1_defined_vs_unknown",
        &["ixp", "afi", "total", "defined", "unknown"],
        &csv_rows,
    );
}

fn run_fig2(ctx: &Ctx) {
    unit_table(
        ctx,
        "Fig. 2 — community types among IXP-defined",
        &["Defined", "Std%", "Ext%", "Large%", "Paper std% (v4)"],
        Some(|ixp| paper::fig2_standard_v4(ixp).map(|p| format!("{p:.1}"))),
        |_, _, view| {
            let f = fig2(view);
            vec![
                human_count(f.total_defined),
                pct1(f.standard_pct()),
                pct1(f.extended_pct()),
                pct1(f.large_pct()),
            ]
        },
    );
}

fn run_fig3(ctx: &Ctx) {
    unit_table(
        ctx,
        "Fig. 3 — action vs informational (standard, IXP-defined)",
        &["Total", "Action%", "Info%", "Paper(action/info v4)"],
        Some(|ixp| paper::fig3_v4(ixp).map(|(a, i)| format!("{a:.1}/{i:.1}"))),
        |_, _, view| {
            let f = fig3(view);
            vec![
                human_count(f.total),
                pct1(f.action_pct()),
                pct1(f.informational_pct()),
            ]
        },
    );
}

fn run_fig4a(ctx: &Ctx) {
    unit_table(
        ctx,
        "Fig. 4a — ASes and routes using action communities",
        &[
            "ASes",
            "ASes%",
            "Routes",
            "Routes%",
            "Paper(ASes% v4/v6, routes% v4)",
        ],
        Some(|ixp| paper::fig4a(ixp).map(|(a4, a6, r4)| format!("{a4:.1}/{a6:.1}, {r4:.1}"))),
        |_, _, view| {
            let f = fig4a(view);
            vec![
                f.ases_using_actions.to_string(),
                pct1(f.ases_pct()),
                human_count(f.routes_with_actions as u64),
                pct1(f.routes_pct()),
            ]
        },
    );
}

fn run_fig4b(ctx: &Ctx) {
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut t = TextTable::new(
        "Fig. 4b — skew of action-community usage across ASes (IPv4)",
        &[
            "IXP",
            "Total",
            "Top1%",
            "Top10%",
            "Bottom90%",
            "Paper top1% (v4)",
        ],
    );
    for (ixp, view) in ctx.v4_views() {
        let f = fig4b(view);
        let paper = paper::fig4b_top1pct(ixp)
            .map(|p| format!("~{:.0}%", p * 100.0))
            .unwrap_or_default();
        t.row([
            ixp.short_name().to_string(),
            human_count(f.total_instances),
            format!("{:.1}%", f.share_of_top(0.01) * 100.0),
            format!("{:.1}%", f.share_of_top(0.10) * 100.0),
            format!("{:.1}%", (1.0 - f.share_of_top(0.10)) * 100.0),
            paper,
        ]);
        for (frac_ases, frac_comm) in f.curve() {
            csv_rows.push(vec![
                ixp.short_name().to_string(),
                format!("{frac_ases:.6}"),
                format!("{frac_comm:.6}"),
            ]);
        }
    }
    println!("{}", t.render());
    ctx.csv(
        "fig4b_cumulative_curve",
        &["ixp", "fraction_of_ases", "fraction_of_action_communities"],
        &csv_rows,
    );
}

fn run_fig4c(ctx: &Ctx) {
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut t = TextTable::new(
        "Fig. 4c — correlation between route share and action share (IPv4)",
        &[
            "IXP",
            "ASes",
            "log-corr",
            "UpperLeft",
            "BottomRight",
            "Paper",
        ],
    );
    for (ixp, view) in ctx.v4_views() {
        let f = fig4c(view);
        let (ul, br) = f.asymmetry();
        t.row([
            ixp.short_name().to_string(),
            f.points.len().to_string(),
            format!("{:.3}", f.log_correlation()),
            ul.to_string(),
            br.to_string(),
            "diagonal; UL only".to_string(),
        ]);
        for (asn, frac_comm, frac_routes) in &f.points {
            csv_rows.push(vec![
                ixp.short_name().to_string(),
                asn.value().to_string(),
                format!("{frac_comm:.8}"),
                format!("{frac_routes:.8}"),
            ]);
        }
    }
    println!("{}", t.render());
    ctx.csv(
        "fig4c_scatter",
        &[
            "ixp",
            "asn",
            "fraction_of_action_communities",
            "fraction_of_routes",
        ],
        &csv_rows,
    );
}

fn run_table2(ctx: &Ctx) {
    unit_table(
        ctx,
        "Table 2 — ASes using each action type",
        &[
            "DoNotAnnounce",
            "AnnounceOnly",
            "Prepend",
            "Blackhole",
            "Paper % (v4)",
        ],
        Some(|ixp| {
            paper::table2_v4(ixp).map(|(a, b, c, d)| format!("{a:.1}/{b:.1}/{c:.1}/{d:.1}"))
        }),
        |_, _, view| {
            let tb = table2(view);
            ActionGroup::ALL
                .map(|g| format!("{} ({})", tb.count(g), pct1(tb.pct(g))))
                .to_vec()
        },
    );
}

fn run_type_counts(ctx: &Ctx) {
    unit_table(
        ctx,
        "§5.3 — action instances per type",
        &["Total", "Avoid%", "Only%", "Prepend%", "Blackhole%"],
        None,
        |_, _, view| {
            let tc = type_counts(view);
            let mut cells = vec![human_count(tc.total)];
            cells.extend(ActionGroup::ALL.map(|g| pct1(tc.pct(g))));
            cells
        },
    );
    let (a, b, c, d) = paper::TYPE_MIX_V4;
    println!("paper IPv4 ranges: avoid {a}, only {b}, prepend {c}, blackhole {d}\n");
}

fn run_fig5(ctx: &Ctx) {
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (ixp, view) in ctx.v4_views() {
        let f = fig5(view);
        print_top(&f, "Fig. 5 — top-20 action communities", "Share");
        for (i, r) in f.top.iter().enumerate() {
            csv_rows.push(vec![
                ixp.short_name().to_string(),
                (i + 1).to_string(),
                r.community.to_string(),
                r.label.clone(),
                r.count.to_string(),
                format!("{:.4}", r.share_pct),
            ]);
        }
        if let Some((label, share)) = paper::fig5_top_v4(ixp) {
            println!("paper top: \"{label}\" at {share}%\n");
        }
    }
    ctx.csv(
        "fig5_top20_communities",
        &["ixp", "rank", "community", "meaning", "count", "share_pct"],
        &csv_rows,
    );
}

fn run_fig6(ctx: &Ctx) {
    for (ixp, view) in ctx.v4_views() {
        print_top(
            &fig6(view),
            "Fig. 6 — top-20 action communities targeting non-RS members",
            "Share of all actions",
        );
        if let Some(n) = paper::fig6_in_top20_v4(ixp) {
            println!("paper: {n} of the top-20 target non-members (IPv4)\n");
        }
    }
}

/// One IXP's ranked table for Fig. 5 or Fig. 6.
fn print_top(f: &TopCommunities, title: &str, share_header: &str) {
    let mut t = TextTable::new(
        format!(
            "{title} at {} (IPv4, total {})",
            f.ixp.short_name(),
            human_count(f.total_in_scope)
        ),
        &["#", "Community", "Meaning", "Count", share_header],
    );
    for (i, r) in f.top.iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            r.community.to_string(),
            r.label.clone(),
            r.count.to_string(),
            pct1(r.share_pct),
        ]);
    }
    println!("{}", t.render());
}

fn run_ineffective(ctx: &Ctx) {
    // the paper reports this share for both families, so the paper cell
    // is part of the row rather than the IPv4-only paper column
    unit_table(
        ctx,
        "§5.5 — action communities targeting ASes not at the RS",
        &["Actions", "Ineffective", "Share", "Paper share"],
        None,
        |ixp, afi, view| {
            let i = ineffective(view);
            let paper = match afi {
                Afi::Ipv4 => paper::ineffective_v4(ixp),
                Afi::Ipv6 => paper::ineffective_v6(ixp),
            };
            vec![
                human_count(i.total_actions),
                human_count(i.ineffective),
                pct1(i.pct()),
                paper.map(|p| format!("{p:.1}%")).unwrap_or_default(),
            ]
        },
    );
}

fn run_fig7(ctx: &Ctx) {
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (ixp, view) in ctx.v4_views() {
        let f = fig7(view, 10);
        let mut t = TextTable::new(
            format!(
                "Fig. 7 — top-10 ASes tagging non-RS-member targets at {} (IPv4, total {})",
                ixp.short_name(),
                human_count(f.total_ineffective)
            ),
            &["#", "AS", "Name", "Count", "Share"],
        );
        for (i, c) in f.top.iter().enumerate() {
            t.row([
                (i + 1).to_string(),
                c.asn.to_string(),
                c.name.clone(),
                c.count.to_string(),
                pct1(c.share_pct),
            ]);
            csv_rows.push(vec![
                ixp.short_name().to_string(),
                (i + 1).to_string(),
                c.asn.value().to_string(),
                c.name.clone(),
                c.count.to_string(),
                format!("{:.4}", c.share_pct),
            ]);
        }
        println!("{}", t.render());
        let he = f
            .top
            .iter()
            .find(|c| c.asn == ixp_sim::universe::asns::HE)
            .map(|c| c.share_pct)
            .unwrap_or(0.0);
        let (lo, hi) = paper::FIG7_HE_SHARE_RANGE;
        println!("Hurricane Electric share: {he:.1}% (paper: {lo}–{hi}% across the big four)\n");
    }
    ctx.csv(
        "fig7_top10_culprits",
        &["ixp", "rank", "asn", "name", "count", "share_pct"],
        &csv_rows,
    );
}

fn timeline_series(ctx: &Ctx) -> Vec<Series> {
    generate_all(&TimelineConfig {
        seed: ctx.seed,
        ..TimelineConfig::default()
    })
}

fn run_table3(ctx: &Ctx) {
    stability_table(
        ctx,
        "Table 3 — variation across seven daily snapshots (last clean week)",
        Series::last_week,
        "paper: the highest weekly difference was 3.91% (AMS-IX v4 communities)",
    );
}

fn run_table4(ctx: &Ctx) {
    stability_table(
        ctx,
        "Table 4 — variation across twelve weekly snapshots",
        Series::weekly,
        "paper: median min-max difference 5.31%; highest 18.03% (DE-CIX-Mad v4 communities)",
    );
}

/// Tables 3 and 4: the min–max variation of each timeline series over
/// the snapshots `points` selects.
fn stability_table(
    ctx: &Ctx,
    title: &str,
    points: fn(&Series) -> Vec<SeriesPoint>,
    paper_line: &str,
) {
    let mut t = TextTable::new(
        title,
        &[
            "IXP",
            "AFI",
            "Memb min–max (diff%)",
            "Pfx diff%",
            "Routes diff%",
            "Comm diff%",
        ],
    );
    for s in timeline_series(ctx) {
        let row = StabilityRow::from_points(s.ixp, s.afi, &points(&s));
        t.row([
            s.ixp.short_name().to_string(),
            s.afi.to_string(),
            format!(
                "{}–{} ({:.2}%)",
                row.members.min,
                row.members.max,
                row.members.diff_pct()
            ),
            format!("{:.2}%", row.prefixes.diff_pct()),
            format!("{:.2}%", row.routes.diff_pct()),
            format!("{:.2}%", row.communities.diff_pct()),
        ]);
    }
    println!("{}", t.render());
    println!("{paper_line}\n");
}

fn run_sanitation(ctx: &Ctx) {
    let series = timeline_series(ctx);
    let total_days: usize = series.iter().map(|s| s.points.len()).sum();
    let mut removed = 0usize;
    let mut caught = 0usize;
    let mut injected = 0usize;
    for s in &series {
        let clean = s.sanitized();
        let removed_days: Vec<u32> = s
            .points
            .iter()
            .map(|p| p.day)
            .filter(|d| !clean.iter().any(|p| p.day == *d))
            .collect();
        removed += removed_days.len();
        injected += s.injected_outages.len();
        caught += s
            .injected_outages
            .iter()
            .filter(|d| removed_days.contains(d))
            .count();
    }
    let mut t = TextTable::new(
        "§3 — snapshot sanitation (valley detection)",
        &["Metric", "Value"],
    );
    t.row(["snapshots inspected", &total_days.to_string()]);
    t.row(["snapshots removed", &removed.to_string()]);
    t.row([
        "removed fraction",
        &format!("{:.1}%", removed as f64 / total_days as f64 * 100.0),
    ]);
    t.row(["injected outages", &injected.to_string()]);
    t.row([
        "outages caught",
        &format!(
            "{caught} ({:.1}%)",
            caught as f64 / injected.max(1) as f64 * 100.0
        ),
    ]);
    println!("{}", t.render());
    println!(
        "paper: removed 169 snapshots (= {:.1}%)\n",
        paper::SANITATION_REMOVED_PCT
    );
}

fn run_overlap(ctx: &Ctx) {
    // §5.4: intersections of the top-20 avoid targets across IXPs
    let tops: Vec<TopCommunities> = ctx.v4_views().map(|(_, view)| fig5(view)).collect();
    let ov = target_overlap_from_tops(&tops.iter().collect::<Vec<_>>());
    let mut t = TextTable::new(
        "§5.4 — cross-IXP intersection of top-20 avoid targets (IPv4)",
        &["Pair", "Shared targets"],
    );
    for i in 0..ctx.ixps.len() {
        for j in (i + 1)..ctx.ixps.len() {
            let shared = ov.pairwise(ctx.ixps[i], ctx.ixps[j]);
            let names: Vec<String> = shared.iter().map(|a| known::name_of(*a)).collect();
            t.row([
                format!(
                    "{} ∩ {}",
                    ctx.ixps[i].short_name(),
                    ctx.ixps[j].short_name()
                ),
                format!("{}: {}", shared.len(), names.join(", ")),
            ]);
        }
    }
    println!("{}", t.render());
    let common = ov.common_names();
    println!(
        "common across all {}: {} targets: {}",
        ctx.ixps.len(),
        common.len(),
        common.join(", ")
    );
    println!("paper: six common avoided ASes across the big four (IPv4), incl. Google, LeaseWeb, Akamai, OVHcloud\n");
}

/// `repro chaos` — run the deterministic fault-injection corpus outside
/// the test harness, with one obs span per seed. Not part of `all`:
/// chaos validates the *pipeline*, not the paper's numbers. Exits
/// nonzero if any seed produces an oracle violation or a
/// non-deterministic replay.
fn run_chaos(ctx: &Ctx) {
    let master_seed = ctx.seed;
    use chaos::prelude::*;

    let seeds: u64 = env_override("CHAOS_SEEDS", "a seed count (u64)", 8);
    let cfg = CampaignConfig::default();
    println!(
        "chaos: {seeds} seed(s), {} days over {:?} at scale {}, {} worker thread(s)",
        cfg.days,
        cfg.ixp,
        cfg.scale,
        par::threads()
    );

    // Seeds fan out over the par pool (each seed's campaign and its
    // rerun are fully self-contained); the ordered join reports them in
    // seed order, so the output is identical to a serial loop.
    let outcomes = chaos::corpus::run_corpus(master_seed, seeds, &cfg);
    let mut failed = 0u64;
    for o in &outcomes {
        println!(
            "  seed {:#x}: {} fault(s) injected, {} violation(s), dataset {:016x}",
            o.seed,
            o.faults,
            o.violations.len(),
            o.dataset_hash
        );
        if !o.violations.is_empty() {
            failed += 1;
            for v in &o.violations {
                println!("    violation: {v}");
            }
            println!(
                "    replay: CHAOS_REPLAY='{{\"seed\":{},\"plan\":{}}}' \
                 cargo test -p chaos --test chaos_suite replay_from_env -- --nocapture --ignored",
                o.seed, o.plan_json
            );
        }
    }
    if failed > 0 {
        eprintln!("chaos: {failed}/{seeds} seed(s) violated an invariant");
        std::process::exit(1);
    }
    println!("chaos: all {seeds} seed(s) green and deterministic\n");
}

/// `repro stream` — run one chaos campaign: the streamed monitoring
/// feed and the snapshot collector over the same faulty transport,
/// checked by every campaign oracle (stream equivalence and update
/// conservation among them). Prints the `stream.*` metrics the drain
/// recorded and exits nonzero if any oracle fires. Not part of `all`:
/// like chaos it validates the pipeline, not the paper's numbers.
///
/// Also prints, per day, the verdict and timing of the incremental
/// report finalize (O(churn) path) against the batch recompute over the
/// same end-of-day snapshot; a diverged day is an oracle violation.
fn run_stream(ctx: &Ctx) {
    let master_seed = ctx.seed;
    use chaos::prelude::*;

    let days: u32 = env_override("STREAM_DAYS", "a day count (u32)", 12);
    let cfg = CampaignConfig {
        days,
        ..CampaignConfig::default()
    };
    let plan = FaultPlan::from_seed(master_seed, cfg.days);
    println!(
        "stream: {days} day(s) over {:?} at scale {}, {} worker thread(s)",
        cfg.ixp,
        cfg.scale,
        par::threads()
    );

    let registry = obs::global();
    let updates = registry.counter(obs::names::STREAM_UPDATES);
    let resyncs = registry.counter(obs::names::STREAM_RESYNCS);
    let synth = registry.counter(obs::names::STREAM_SYNTH_WITHDRAWS);
    let dupes = registry.counter(obs::names::STREAM_DUPES_DROPPED);
    let polls = registry.counter(obs::names::STREAM_POLLS);
    let queue_depth = registry.gauge(obs::names::STREAM_QUEUE_DEPTH);
    let before = (
        updates.get(),
        resyncs.get(),
        synth.get(),
        dupes.get(),
        polls.get(),
    );

    let outcome = run_campaign(master_seed, &plan, &cfg);
    let violations = check_campaign(&outcome, &plan, &cfg);

    println!("  stream.updates         {}", updates.get() - before.0);
    println!("  stream.resyncs         {}", resyncs.get() - before.1);
    println!("  stream.synth_withdraws {}", synth.get() - before.2);
    println!("  stream.dupes_dropped   {}", dupes.get() - before.3);
    println!("  stream.polls           {}", polls.get() - before.4);
    println!(
        "  stream.queue_depth     {} (at quiescence)",
        queue_depth.get()
    );
    println!(
        "  frames minted {} / applied {} — conservation {}",
        outcome.frames_minted,
        outcome.stream_stats.applied,
        if outcome.frames_minted == outcome.stream_stats.applied {
            "holds"
        } else {
            "BROKEN"
        }
    );
    println!(
        "  {} fault(s) injected across {} day(s); dataset {:016x}",
        outcome.stats.total_faults(),
        outcome.days.len(),
        outcome.dataset_hash
    );

    // fold the engine's delta count into the metric registry, then
    // report the per-day O(churn) finalize against the O(world)
    // batch recompute the campaign timed alongside it
    registry
        .counter(obs::names::ANALYSIS_INCREMENTAL_DELTAS)
        .add(outcome.incremental_deltas);
    println!(
        "incremental: {} delta(s) consumed, {} underflow(s); per-day finalize vs batch recompute:",
        outcome.incremental_deltas, outcome.incremental_underflows
    );
    let (mut inc_total, mut batch_total) = (0u64, 0u64);
    for rec in &outcome.days {
        inc_total += rec.incremental_ns;
        batch_total += rec.batch_ns;
        println!(
            "  day {:>2}: {} — incremental {:>10} ns, batch {:>12} ns ({:.1}x)",
            rec.day,
            if rec.incremental_hash == rec.batch_hash {
                "reports identical"
            } else {
                "reports DIVERGED "
            },
            rec.incremental_ns,
            rec.batch_ns,
            rec.batch_ns as f64 / rec.incremental_ns.max(1) as f64,
        );
    }
    let speedup = batch_total as f64 / inc_total.max(1) as f64;
    println!("  totals: incremental {inc_total} ns vs batch {batch_total} ns — {speedup:.1}x");

    if violations.is_empty() {
        println!(
            "stream: every day byte-identical to the polled reference \
             ({days}/{days} green)\n"
        );
    } else {
        for v in &violations {
            println!("  violation: {v}");
        }
        eprintln!(
            "stream: {} violation(s) (replay: seed={master_seed:#x}, plan={})",
            violations.len(),
            plan.to_json()
        );
        std::process::exit(1);
    }
}
