//! `compare <a.json> <b.json>`: one row per (workload, end-to-end
//! metric) of two results files, `a` being the baseline.

use crate::harness::{Metric, Results};
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread is wider than the bound, so "no worse"
    /// cannot be told from "worse".
    Unresolved,
    /// The metric exists on one side only.
    Missing,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Relative spread of one side: interquartile distance over the median.
fn spread(m: &Metric) -> f64 {
    if m.value == 0.0 {
        0.0
    } else {
        (m.q3 - m.q1).abs() / m.value.abs()
    }
}

/// Judge `b` against the baseline `a` for one metric.
pub fn verdict(def: &EndToEnd, a: &Metric, b: &Metric) -> Verdict {
    // the same measurement on both sides: nothing to resolve
    if a.samples == b.samples {
        return Verdict::Same;
    }
    // how much worse b's median is, as a share of a's (negative: better)
    let delta = match def.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let worse_by = if a.value != 0.0 {
        delta / a.value.abs()
    } else if delta == 0.0 {
        0.0
    } else {
        delta.signum() * f64::INFINITY
    };
    if worse_by > def.bound {
        return Verdict::Worse;
    }
    if -worse_by > def.bound {
        return Verdict::Better;
    }
    let every_run_better = match def.better {
        Better::Lower => max(&b.samples) < min(&a.samples),
        Better::Higher => min(&b.samples) > max(&a.samples),
    };
    if spread(a).max(spread(b)) > def.bound && !every_run_better {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Print the table; `true` when no row is `worse`.
pub fn compare(a: &Results, b: &Results) -> bool {
    println!(
        "baseline: seed {} rev {} ({})  candidate: seed {} rev {} ({})",
        a.manifest.seed,
        a.manifest.git_rev,
        a.manifest.date,
        b.manifest.seed,
        b.manifest.git_rev,
        b.manifest.date
    );
    println!(
        "{:<20} {:<12} {:>13} {:>25} {:>13} {:>25} {:>6}  verdict",
        "workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "bound"
    );
    let mut ok = true;
    for wa in &a.workloads {
        let wb = b.workloads.iter().find(|w| w.name == wa.name);
        for def in &END_TO_END {
            let ma = wa.end_to_end.get(def.name).and_then(Option::as_ref);
            let mb = wb.and_then(|w| w.end_to_end.get(def.name).and_then(Option::as_ref));
            let verdict = match (ma, mb) {
                (None, None) => continue,
                (Some(ma), Some(mb)) => verdict(def, ma, mb),
                _ => Verdict::Missing,
            };
            ok &= verdict != Verdict::Worse;
            let cell = |m: Option<&Metric>| match m {
                Some(m) => (
                    format!("{:.6}", m.value),
                    format!("[{:.6}, {:.6}]", m.q1, m.q3),
                ),
                None => ("-".into(), "-".into()),
            };
            let (av, aq) = cell(ma);
            let (bv, bq) = cell(mb);
            println!(
                "{:<20} {:<12} {:>13} {:>25} {:>13} {:>25} {:>6}  {}",
                wa.name,
                def.name,
                av,
                aq,
                bv,
                bq,
                def.bound,
                verdict.as_str()
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(samples: &[f64]) -> Metric {
        let (q1, q3) = crate::stats::quartiles(samples);
        Metric {
            unit: "s".into(),
            value: crate::stats::median(samples),
            q1,
            q3,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts() {
        let wall = &END_TO_END[0];
        assert_eq!(wall.name, "wall_s");
        let base = metric(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        assert_eq!(verdict(wall, &base, &base), Verdict::Same);
        let again = metric(&[1.01, 1.00, 0.98, 1.00, 1.02]);
        assert_eq!(verdict(wall, &base, &again), Verdict::Same);
        let slower = metric(&[1.20, 1.21, 1.19, 1.22, 1.20]);
        assert_eq!(verdict(wall, &base, &slower), Verdict::Worse);
        let faster = metric(&[0.80, 0.81, 0.79, 0.80, 0.82]);
        assert_eq!(verdict(wall, &base, &faster), Verdict::Better);
        let noisy = metric(&[0.7, 1.3, 1.0, 0.8, 1.25]);
        assert_eq!(verdict(wall, &base, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(wall, &noisy, &noisy), Verdict::Same);
        // failed_frac: bound 0, any increase is worse
        let failed = &END_TO_END[5];
        assert_eq!(failed.name, "failed_frac");
        assert_eq!(
            verdict(failed, &metric(&[0.0]), &metric(&[0.0])),
            Verdict::Same
        );
        assert_eq!(
            verdict(failed, &metric(&[0.0]), &metric(&[0.01])),
            Verdict::Worse
        );
    }
}
