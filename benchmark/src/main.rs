//! The repo's benchmark: five workloads over the collect → sanitize →
//! classify → report pipeline, end-to-end metrics from untraced runs and
//! a per-layer table from a traced one. See `benchmark/README.md`.
//!
//! ```text
//! ixp-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's call)
//! ixp-benchmark run  …same flags…                               the same
//! ixp-benchmark all --seed N [--seconds S] [--out DIR] [--tiny] every workload, results.json + trace-*.json
//! ixp-benchmark compare A.json B.json                           verdict per (workload, end-to-end metric)
//! ixp-benchmark describe                                        /BENCHMARK.json as this crate defines it
//! ```

mod compare;
mod harness;
mod metrics;
mod session;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use session::Spec;

/// What `--seconds` defaults to: `run_seconds` of `/BENCHMARK.json`.
const RUN_SECONDS: f64 = 9.0;

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some("tiny") => {
                args.flags.insert("tiny".into(), "1".into());
            }
            Some(flag) => {
                let value = it.next().ok_or(format!("--{flag} needs a value"))?;
                args.flags.insert(flag.into(), value.clone());
            }
            None => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

impl Args {
    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.flags
            .get(flag)
            .map(|v| v.parse().map_err(|_| format!("--{flag}: bad value `{v}`")))
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed")?.ok_or_else(|| "--seed is required".into())
    }

    fn spec(&self) -> Result<Spec, String> {
        Ok(Spec {
            workload: self
                .flags
                .get("workload")
                .cloned()
                .ok_or("--workload is required")?,
            seed: self.seed()?,
            seconds: self.get("seconds")?.unwrap_or(RUN_SECONDS),
            trace: self.get::<u8>("trace")?.unwrap_or(0) != 0,
            tiny: self.flags.contains_key("tiny"),
            sessions: harness::RUN_SESSIONS,
        })
    }
}

fn read_results(path: &str) -> Result<harness::Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw)?;
    match args.positional.first().map(String::as_str) {
        Some("session") => {
            let outcome = session::run_named(&args.spec()?)?;
            println!(
                "{}",
                serde_json::to_string(&outcome).map_err(|e| e.to_string())?
            );
            Ok(true)
        }
        None | Some("run") => {
            let spec = args.spec()?;
            let (result, _) = harness::run_workload(&spec)?;
            for failure in &result.failures {
                eprintln!("failed: {failure}");
            }
            println!("{}", harness::driver_line(&result, spec.trace));
            Ok(result.correct())
        }
        Some("all") => {
            let out = args
                .flags
                .get("out")
                .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from);
            harness::run_all(
                args.seed()?,
                args.get("seconds")?.unwrap_or(RUN_SECONDS),
                args.flags.contains_key("tiny"),
                &out,
            )
        }
        Some("describe") => {
            println!("{}", harness::describe(RUN_SECONDS as u64));
            Ok(true)
        }
        Some("compare") => match &args.positional[1..] {
            [a, b] => Ok(compare::compare(&read_results(a)?, &read_results(b)?)),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ixp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
