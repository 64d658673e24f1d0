//! The parent side: spawn sessions as child processes, pool what they
//! measured into one result per workload, and print or store it.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde::{Deserialize, Serialize};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::session::{session_layers, Outcome, Spec};
use crate::stats::{median, percentile, quartiles};
use crate::sys;
use crate::trace::Span;
use crate::workloads::{Params, WORKLOADS};

/// Fresh processes per untraced run of the driver: set-up is measured
/// once in each, and `setup_s` is the median of them.
pub const RUN_SESSIONS: usize = 3;

/// The same for `all`, whose quartiles `compare` judges: five samples
/// of the per-session metrics survive one disturbed session.
pub const ALL_SESSIONS: usize = 5;

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub unit: String,
    /// Median of `samples` (`day_ms_p95`: the percentile of the pooled
    /// days; `failed_frac`: failed ÷ attempted).
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Every raw value the median was taken over.
    pub samples: Vec<f64>,
}

impl Metric {
    fn of(unit: &str, samples: Vec<f64>) -> Self {
        let (q1, q3) = quartiles(&samples);
        Metric {
            unit: unit.to_string(),
            value: median(&samples),
            q1,
            q3,
            samples,
        }
    }
}

/// One per-layer metric of one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerValue {
    pub unit: String,
    pub value: f64,
}

/// Everything measured for one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    pub why: String,
    pub params: Params,
    /// The workload's item count, exact for the seed.
    pub items: u64,
    pub par_threads: usize,
    /// Sessions (fresh processes) and timed repetitions behind the
    /// end-to-end numbers.
    pub sessions: usize,
    pub repetitions: usize,
    /// `None` where the metric does not exist on this workload.
    pub end_to_end: BTreeMap<String, Option<Metric>>,
    pub per_layer: BTreeMap<String, LayerValue>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub fingerprint: String,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The run manifest: what produced a results file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    pub seed: u64,
    pub run_seconds: f64,
    pub tiny: bool,
    pub par_threads: usize,
    pub nproc: usize,
    pub git_rev: String,
    pub rustc: String,
    pub date: String,
    pub sessions_per_run: usize,
}

/// `benchmark/out/results.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Results {
    pub manifest: Manifest,
    pub workloads: Vec<WorkloadResult>,
}

/// `benchmark/out/trace-<workload>.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceFile {
    pub workload: String,
    pub seed: u64,
    /// Set-up and the first timed repetition of the traced session.
    pub spans: Vec<Span>,
}

fn manifest(seed: u64, run_seconds: f64, tiny: bool) -> Manifest {
    Manifest {
        seed,
        run_seconds,
        tiny,
        par_threads: sys::par_threads(),
        nproc: sys::nproc(),
        git_rev: sys::git_rev(),
        rustc: sys::rustc_version(),
        date: sys::utc_date(),
        sessions_per_run: ALL_SESSIONS,
    }
}

fn spawn_session(spec: &Spec, threads: usize) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("session")
        .args(["--workload", &spec.workload])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if spec.trace { "1" } else { "0" }])
        .env("PAR_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if spec.tiny {
        cmd.arg("--tiny");
    }
    // `output` waits for the child and collects its standard output
    let out = cmd.output().map_err(|e| format!("spawn session: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "session `{}` exited with {}",
            spec.workload, out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("session `{}` output: {e}", spec.workload))
}

fn walls(outcome: &Outcome) -> Vec<f64> {
    outcome.reps.iter().map(|r| r.wall_s).collect()
}

fn day_p95(outcomes: &[&Outcome]) -> Option<f64> {
    let days: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.reps.iter().flat_map(|r| r.day_ms.iter().copied()))
        .collect();
    (!days.is_empty()).then(|| percentile(&days, 95.0))
}

/// Run one workload. Untraced: `spec.sessions` fresh processes sharing the
/// budget, giving the end-to-end metrics. Traced: one untraced and one
/// traced session (their difference is the tracing overhead) and, where
/// `par` fans out, one more on a single worker, giving the per-layer
/// metrics.
pub fn run_workload(spec: &Spec) -> Result<(WorkloadResult, Option<TraceFile>), String> {
    let (name, why) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == spec.workload)
        .ok_or_else(|| format!("unknown workload `{}`", spec.workload))?;
    let threads = sys::par_threads();
    // (traced, PAR_THREADS) of each session
    let mut plan = vec![(false, threads); if spec.trace { 1 } else { spec.sessions }];
    if spec.trace {
        plan.push((true, threads));
        if *name == crate::workloads::repro_batch::NAME && threads > 1 {
            plan.push((false, 1));
        }
    }
    let seconds = spec.seconds / plan.len() as f64;
    let outcomes = plan
        .iter()
        .map(|&(trace, threads)| {
            let share = Spec {
                seconds,
                trace,
                ..spec.clone()
            };
            spawn_session(&share, threads)
        })
        .collect::<Result<Vec<Outcome>, String>>()?;

    let mut per_layer = BTreeMap::new();
    if let Some(traced) = outcomes.iter().find(|o| o.traced) {
        let mut layers = session_layers(traced);
        let base = median(&walls(&outcomes[0]));
        let overhead = median(&walls(traced)) / base - 1.0;
        layers.insert("proc.trace_overhead_frac".into(), overhead);
        layers.insert("par.threads_n".into(), threads as f64);
        if let Some(p95) = day_p95(&[traced]) {
            layers.insert("day_ms_p95".into(), p95);
        }
        if let Some(one) = outcomes.iter().find(|o| o.threads < threads) {
            layers.insert("par.speedup".into(), median(&walls(one)) / base);
        }
        for (metric, unit) in PER_LAYER {
            per_layer.insert(
                metric.to_string(),
                LayerValue {
                    unit: unit.to_string(),
                    value: layers.remove(metric).unwrap_or(0.0),
                },
            );
        }
        if let Some(orphan) = layers.keys().next() {
            return Err(format!("`{orphan}` was measured but is not in PER_LAYER"));
        }
    }

    // pool the sessions
    let first = &outcomes[0];
    let mut failed: u64 = outcomes.iter().map(|o| o.ops.failed).sum();
    let mut attempted: u64 = outcomes.iter().map(|o| o.ops.attempted).sum();
    let mut failures: Vec<String> = outcomes
        .iter()
        .flat_map(|o| o.ops.failures.iter().cloned())
        .collect();
    for o in &outcomes[1..] {
        attempted += 1;
        if o.fingerprint != first.fingerprint || o.items != first.items {
            failed += 1;
            failures.push(format!(
                "sessions disagree: fingerprint {} / {} items vs {} / {}",
                o.fingerprint, o.items, first.fingerprint, first.items
            ));
        }
    }
    let measured: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| !o.traced && o.threads == threads)
        .collect();
    let wall: Vec<f64> = measured.iter().flat_map(|o| walls(o)).collect();
    let items = first.items;
    let mut end_to_end: BTreeMap<String, Option<Metric>> = BTreeMap::new();
    for m in &END_TO_END {
        let of = |samples: Vec<f64>| Some(Metric::of(m.unit, samples));
        let metric = match m.name {
            "wall_s" => of(wall.clone()),
            "items_per_s" => of(wall.iter().map(|w| items as f64 / w).collect()),
            "peak_rss_mb" => of(measured.iter().map(|o| o.peak_rss_mb).collect()),
            "setup_s" => of(measured.iter().map(|o| o.setup_s).collect()),
            // the value pools every day; the samples are per repetition,
            // so the quartiles say how far repetitions disagree
            "day_ms_p95" => day_p95(&measured).map(|pooled| Metric {
                value: pooled,
                ..Metric::of(
                    m.unit,
                    measured
                        .iter()
                        .flat_map(|o| o.reps.iter().map(|r| percentile(&r.day_ms, 95.0)))
                        .collect(),
                )
            }),
            "failed_frac" => of(vec![failed as f64 / attempted.max(1) as f64]),
            other => unreachable!("end-to-end metric `{other}` has no source"),
        };
        end_to_end.insert(m.name.to_string(), metric);
    }

    let trace = outcomes.iter().find(|o| o.traced).map(|o| TraceFile {
        workload: o.workload.clone(),
        seed: o.seed,
        spans: o.spans.clone(),
    });
    let result = WorkloadResult {
        name: name.to_string(),
        why: why.to_string(),
        params: first.params.clone(),
        items,
        par_threads: threads,
        sessions: measured.len(),
        repetitions: wall.len(),
        end_to_end,
        per_layer,
        attempted,
        failed,
        failures,
        fingerprint: first.fingerprint.clone(),
    };
    Ok((result, trace))
}

/// The line the driver reads: the gated end-to-end metrics of an
/// untraced run, or every per-layer metric of a traced one.
pub fn driver_line(result: &WorkloadResult, trace: bool) -> String {
    #[derive(Serialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: BTreeMap<String, LayerValue>,
    }
    let metrics = if trace {
        result.per_layer.clone()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.gated_by_driver)
            .map(|m| {
                let value = result.end_to_end[m.name].as_ref().map_or(0.0, |x| x.value);
                let unit = m.unit.to_string();
                (m.name.to_string(), LayerValue { unit, value })
            })
            .collect()
    };
    let line = Line {
        correct: result.correct(),
        attempted: result.attempted.max(1),
        failed: result.failed,
        metrics,
    };
    serde_json::to_string(&line).expect("plain numbers and strings serialize")
}

/// Print one workload's metrics by name with their units: the
/// end-to-end table, then the per-layer table beside the traced wall
/// clock with the residual named.
pub fn print_result(result: &WorkloadResult) {
    println!(
        "== {} — {} {} ({} sessions, {} repetitions, PAR_THREADS={})",
        result.name,
        result.items,
        result.params.item,
        result.sessions,
        result.repetitions,
        result.par_threads
    );
    for m in &END_TO_END {
        match &result.end_to_end[m.name] {
            Some(x) => println!(
                "  {:<44} {:>14.6} {:<6} [q1 {:.6}, q3 {:.6}, n {}]",
                m.name,
                x.value,
                x.unit,
                x.q1,
                x.q3,
                x.samples.len()
            ),
            None => println!("  {:<44} {:>14} {:<6}", m.name, "null", m.unit),
        }
    }
    if !result.per_layer.is_empty() {
        let get = |name: &str| result.per_layer.get(name).map_or(0.0, |l| l.value);
        let wall = get("proc.wall_traced_s");
        println!("  -- per layer (traced wall {wall:.6} s; `_s` include set-up spans once)");
        for (name, unit) in PER_LAYER {
            println!("  {:<44} {:>14.6} {}", name, get(name), unit);
        }
        println!(
            "  {:<44} {:>14.6} s  (wall not under any layer span)",
            "residual",
            get("proc.unattributed_frac") * wall
        );
    }
    println!(
        "  checks: {} attempted, {} failed — {}",
        result.attempted,
        result.failed,
        if result.correct() { "ok" } else { "FAILED" }
    );
    for failure in &result.failures {
        println!("    failed: {failure}");
    }
}

/// `all`: every workload, untraced then traced, merged into one results
/// file plus one trace file per workload under `out`.
pub fn run_all(seed: u64, seconds: f64, tiny: bool, out: &std::path::Path) -> Result<bool, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut results = Results {
        manifest: manifest(seed, seconds, tiny),
        workloads: Vec::new(),
    };
    let write = |path: std::path::PathBuf, json: String| {
        std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))
    };
    for (name, _) in WORKLOADS {
        let spec = Spec {
            workload: name.to_string(),
            seed,
            seconds,
            trace: false,
            tiny,
            sessions: ALL_SESSIONS,
        };
        let (mut result, _) = run_workload(&spec)?;
        let (traced, trace) = run_workload(&Spec {
            trace: true,
            ..spec
        })?;
        result.per_layer = traced.per_layer;
        result.attempted += traced.attempted;
        result.failed += traced.failed;
        result.failures.extend(traced.failures);
        if traced.fingerprint != result.fingerprint {
            result.failed += 1;
            result
                .failures
                .push("traced and untraced runs disagree on the fingerprint".into());
        }
        if let Some(f) = result.end_to_end.get_mut("failed_frac") {
            let frac = result.failed as f64 / result.attempted.max(1) as f64;
            *f = Some(Metric::of("ratio", vec![frac]));
        }
        print_result(&result);
        if let Some(trace) = trace {
            let json = serde_json::to_string_pretty(&trace).map_err(|e| e.to_string())?;
            write(out.join(format!("trace-{name}.json")), json)?;
        }
        results.workloads.push(result);
    }
    let json = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    write(out.join("results.json"), json)?;
    println!("wrote {}", out.join("results.json").display());
    Ok(results.workloads.iter().all(WorkloadResult::correct))
}

/// `/BENCHMARK.json` as the constants of this crate define it.
pub fn describe(run_seconds: u64) -> String {
    #[derive(Serialize)]
    struct Workload {
        name: String,
        why: String,
    }
    #[derive(Serialize)]
    struct EndToEnd {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }
    #[derive(Serialize)]
    struct Layer {
        name: String,
        unit: String,
        better: String,
    }
    #[derive(Serialize)]
    struct Description {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Workload>,
        end_to_end: Vec<EndToEnd>,
        per_layer: Vec<Layer>,
    }
    let description = Description {
        command: "cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --"
            .split(' ')
            .map(String::from)
            .collect(),
        paths: vec!["benchmark".into()],
        run_seconds,
        workloads: WORKLOADS
            .iter()
            .map(|(name, why)| Workload {
                name: name.to_string(),
                why: why.to_string(),
            })
            .collect(),
        end_to_end: END_TO_END
            .iter()
            .filter(|m| m.gated_by_driver)
            .map(|m| EndToEnd {
                name: m.name.into(),
                unit: m.unit.into(),
                better: m.better.as_str().into(),
                bound: m.bound,
            })
            .collect(),
        per_layer: PER_LAYER
            .iter()
            .map(|(name, unit)| Layer {
                name: name.to_string(),
                unit: unit.to_string(),
                better: crate::metrics::layer_better(name).as_str().into(),
            })
            .collect(),
    };
    serde_json::to_string_pretty(&description).expect("plain numbers and strings serialize")
}
