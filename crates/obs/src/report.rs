//! Human-readable rendering of snapshots for CLI reports.
//!
//! A histogram's unit comes from its name ([`names::records_ms`]):
//! nanosecond histograms fill the slowest-spans table, millisecond ones
//! a table of their own.

use crate::names;
use crate::snapshot::Snapshot;

/// Summary of one span histogram, for "slowest spans" tables.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpanSummary {
    /// Histogram (span) name.
    pub name: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Total time spent, nanoseconds.
    pub total_ns: u64,
    /// Mean span duration, nanoseconds.
    pub mean_ns: f64,
    /// Approximate p99 duration, nanoseconds.
    pub p99_ns: u64,
}

/// The `n` nanosecond histograms with the largest total recorded time,
/// descending. Millisecond histograms are left out.
pub(crate) fn top_spans(snapshot: &Snapshot, n: usize) -> Vec<SpanSummary> {
    let mut spans = summaries(snapshot, false);
    spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    spans.truncate(n);
    spans
}

/// Summaries, in nanoseconds, of the histograms that record milliseconds
/// (`ms`) or nanoseconds (`!ms`), in name order.
fn summaries(snapshot: &Snapshot, ms: bool) -> Vec<SpanSummary> {
    let ns_per_unit: u64 = if ms { 1_000_000 } else { 1 };
    snapshot
        .histograms
        .iter()
        .filter(|(name, _)| names::records_ms(name) == ms)
        .map(|(name, h)| SpanSummary {
            name: name.clone(),
            count: h.count,
            total_ns: h.sum.saturating_mul(ns_per_unit),
            mean_ns: h.mean() * ns_per_unit as f64,
            p99_ns: h.quantile(0.99).saturating_mul(ns_per_unit),
        })
        .collect()
}

pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Render the counters (and gauges) of a snapshot as an aligned table.
pub(crate) fn render_counters(snapshot: &Snapshot) -> String {
    let width = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .map(|k| k.len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        out.push_str(&format!("  {name:<width$}  {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        out.push_str(&format!("  {name:<width$}  {value} (gauge)\n"));
    }
    out
}

/// Render a full telemetry report: counters, gauges, the `top_n`
/// slowest spans and every millisecond histogram, each with count /
/// total / mean / p99.
pub fn render_report(snapshot: &Snapshot, top_n: usize) -> String {
    let mut out = String::new();
    out.push_str("counters:\n");
    out.push_str(&render_counters(snapshot));
    let spans = top_spans(snapshot, top_n);
    push_table(
        &mut out,
        &format!("top {} spans by total time:", spans.len()),
        &spans,
    );
    push_table(
        &mut out,
        "millisecond histograms:",
        &summaries(snapshot, true),
    );
    out
}

fn push_table(out: &mut String, title: &str, rows: &[SpanSummary]) {
    if rows.is_empty() {
        return;
    }
    out.push_str(title);
    out.push('\n');
    let width = rows.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for s in rows {
        out.push_str(&format!(
            "  {:<width$}  count {:>8}  total {:>10}  mean {:>10}  p99 {:>10}\n",
            s.name,
            s.count,
            fmt_ns(s.total_ns as f64),
            fmt_ns(s.mean_ns),
            fmt_ns(s.p99_ns as f64),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn top_spans_orders_by_total_time() {
        let registry = Registry::new();
        registry.histogram("slow").record(1_000_000);
        let fast = registry.histogram("fast");
        fast.record(10);
        fast.record(20);
        registry.counter("n").add(3);
        let snap = registry.snapshot();

        let spans = top_spans(&snap, 5);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "slow");
        assert_eq!(spans[1].name, "fast");
        assert_eq!(spans[1].count, 2);

        let spans = top_spans(&snap, 1);
        assert_eq!(spans.len(), 1);

        let report = render_report(&snap, 5);
        assert!(report.contains("n"));
        assert!(report.contains("slow"));
        assert!(report.contains("1.00 ms"));
    }

    #[test]
    fn ms_histograms_render_in_ms_outside_the_span_table() {
        let registry = Registry::new();
        // a 15 s virtual-clock collect, and a 1 µs span
        let collect = registry.histogram(names::LG_CLIENT_COLLECT_MS);
        collect.record(15_000);
        registry.histogram("fast").record(1_000);
        let snap = registry.snapshot();
        let spans: Vec<String> = top_spans(&snap, 5).into_iter().map(|s| s.name).collect();
        assert_eq!(spans, ["fast"]);
        let report = render_report(&snap, 5);
        let (_, ms_table) = report.split_once("millisecond histograms:").expect(&report);
        assert!(ms_table.contains("lg.client.collect_ms  count        1  total    15.00 s"));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(5.0), "5 ns");
        assert_eq!(fmt_ns(1500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_000_000.0), "2.00 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00 s");
    }
}
