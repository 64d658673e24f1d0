//! One session: a fresh process that sets a workload up, runs one
//! discarded warm-up repetition (checked against a reference), then
//! timed repetitions until its budget is spent, and prints what it
//! measured as one line of JSON for the parent to aggregate.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::stats::median;
use crate::sys;
use crate::trace::{Span, Totals, Tracer, RUN};
use crate::workloads::{self, Ops, Params, Summary, Workload};

/// Timed repetitions a session makes even when its budget is already
/// spent, so a median exists.
const MIN_REPS: usize = 2;

/// What the parent asks of a session.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: String,
    pub seed: u64,
    /// Budget for the timed repetitions, seconds.
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    /// Untraced sessions the parent splits `seconds` over.
    pub sessions: usize,
}

/// One timed repetition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rep {
    pub wall_s: f64,
    pub day_ms: Vec<f64>,
    /// Per-layer values of this repetition (traced sessions only).
    pub layers: BTreeMap<String, f64>,
}

/// Everything one session measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub threads: usize,
    pub traced: bool,
    pub params: Params,
    pub items: u64,
    /// Process start → first timed repetition: input build, staging and
    /// the warm-up repetition (its output check excluded).
    pub setup_s: f64,
    /// `VmHWM` after set-up and one complete repetition, read before any
    /// output check allocates.
    pub peak_rss_mb: f64,
    /// CPU seconds per timed repetition, all threads.
    pub cpu_s: f64,
    pub fingerprint: String,
    pub ops: Ops,
    pub reps: Vec<Rep>,
    /// Busy seconds per span name during set-up (traced sessions only).
    pub setup_layers: BTreeMap<String, f64>,
    /// Post-run probes (traced sessions only).
    pub probes: BTreeMap<String, f64>,
    /// Set-up and the first timed repetition (traced sessions only).
    pub spans: Vec<Span>,
}

/// Per-layer values of one repetition: `<span>_s` busy seconds, the
/// workload's counts, and the values derived from both.
fn rep_layers(spans: &[Span], summary: &Summary) -> BTreeMap<String, f64> {
    let totals = Totals::of(spans);
    let mut out: BTreeMap<String, f64> = totals
        .busy_s
        .iter()
        .filter(|(name, _)| name.as_str() != RUN)
        .map(|(name, busy)| (format!("{name}_s"), *busy))
        .collect();
    let self_of = |name: &str| totals.self_s.get(name).copied().unwrap_or(0.0);
    out.insert(
        "looking-glass.collector_self_s".into(),
        self_of("looking-glass.collect"),
    );
    out.insert("stream.apply_self_s".into(), self_of("stream.drain"));
    for (name, value) in &summary.counts {
        out.insert((*name).to_string(), *value);
    }
    // where the batch analysis runs, the items are the routes it walked
    let batch = totals.busy("analysis.batch_report");
    if batch > 0.0 && summary.items > 0 {
        out.insert(
            "analysis.batch_ns_per_route".into(),
            batch * 1e9 / summary.items as f64,
        );
    }
    let wall = totals.busy(RUN);
    out.insert("proc.wall_traced_s".into(), wall);
    if wall > 0.0 {
        out.insert("proc.unattributed_frac".into(), self_of(RUN) / wall);
    }
    out
}

fn run<W: Workload>(spec: &Spec) -> Outcome {
    let tr = Tracer::new(spec.trace);
    let params = W::params(spec.tiny);
    let mut ops = Ops::default();
    let mut setup = Duration::ZERO;

    tr.set_phase("setup");
    let start = Instant::now();
    let inputs = W::prepare(&params, spec.seed, &tr);
    setup += start.elapsed();
    let setup_spans = tr.drain();
    let setup_layers = Totals::of(&setup_spans).busy_s;

    // warm-up: fills caches and lazy state, and is the repetition whose
    // artifacts are compared with the reference
    tr.set_phase("warm-up");
    let start = Instant::now();
    let staged = W::stage(&inputs);
    let (warm, artifacts) = tr.span(RUN, || W::run(&inputs, staged, &tr, &mut ops));
    setup += start.elapsed();
    let peak_rss_mb = sys::peak_rss_mb();
    W::verify(&inputs, &artifacts, &mut ops);
    let fingerprint = W::fingerprint(&artifacts);
    let probes: BTreeMap<String, f64> = if spec.trace {
        W::probe(&inputs, &artifacts)
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect()
    } else {
        BTreeMap::new()
    };
    drop(artifacts);
    tr.drain();

    let mut reps: Vec<Rep> = Vec::new();
    let mut spans = setup_spans;
    let budget = Duration::from_secs_f64(spec.seconds.max(0.0));
    let timed_start = Instant::now();
    let mut cpu_start = 0.0;
    while reps.len() < MIN_REPS || timed_start.elapsed() < budget {
        let start = Instant::now();
        let staged = W::stage(&inputs);
        if reps.is_empty() {
            setup += start.elapsed();
            cpu_start = sys::cpu_s();
        }
        tr.set_phase(&format!("rep {}", reps.len()));
        let start = Instant::now();
        let (summary, artifacts) = tr.span(RUN, || W::run(&inputs, staged, &tr, &mut ops));
        let wall_s = start.elapsed().as_secs_f64();
        ops.check(W::fingerprint(&artifacts) == fingerprint, || {
            format!(
                "rep {}: output fingerprint differs from the warm-up's",
                reps.len()
            )
        });
        ops.check(summary.items == warm.items, || {
            format!(
                "rep {}: {} items, warm-up {}",
                reps.len(),
                summary.items,
                warm.items
            )
        });
        drop(artifacts);
        let rep_spans = tr.drain();
        let layers = if spec.trace {
            rep_layers(&rep_spans, &summary)
        } else {
            BTreeMap::new()
        };
        if reps.is_empty() {
            spans.extend(rep_spans);
        }
        reps.push(Rep {
            wall_s,
            day_ms: summary.day_ms,
            layers,
        });
    }
    let cpu_s = (sys::cpu_s() - cpu_start) / reps.len() as f64;

    Outcome {
        workload: spec.workload.clone(),
        seed: spec.seed,
        threads: par::threads(),
        traced: spec.trace,
        params,
        items: warm.items,
        setup_s: setup.as_secs_f64(),
        peak_rss_mb,
        cpu_s,
        fingerprint: format!("{fingerprint:016x}"),
        ops,
        reps,
        setup_layers,
        probes,
        spans,
    }
}

/// Run the session `spec` describes in this process.
pub fn run_named(spec: &Spec) -> Result<Outcome, String> {
    use workloads::*;
    Ok(match spec.workload.as_str() {
        repro_batch::NAME => run::<repro_batch::ReproBatch>(spec),
        longitudinal_poll::NAME => run::<longitudinal_poll::LongitudinalPoll>(spec),
        longitudinal_stream::NAME => run::<longitudinal_stream::LongitudinalStream>(spec),
        wire_ingest::NAME => run::<wire_ingest::WireIngest>(spec),
        lg_tcp_collect::NAME => run::<lg_tcp_collect::LgTcpCollect>(spec),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Per-layer values of a whole traced session: set-up busy time plus
/// the median over its repetitions, then the probes.
pub fn session_layers(outcome: &Outcome) -> BTreeMap<String, f64> {
    let mut names: Vec<&String> = outcome.reps.iter().flat_map(|r| r.layers.keys()).collect();
    names.sort();
    names.dedup();
    let mut out: BTreeMap<String, f64> = names
        .into_iter()
        .map(|name| {
            let per_rep: Vec<f64> = outcome
                .reps
                .iter()
                .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                .collect();
            (name.clone(), median(&per_rep))
        })
        .collect();
    for (name, busy) in &outcome.setup_layers {
        *out.entry(format!("{name}_s")).or_default() += busy;
    }
    out.extend(outcome.probes.clone());
    out.insert("proc.cpu_s".into(), outcome.cpu_s);
    out
}
