//! CSV summaries of a recorder's histograms.
//!
//! Pure string emitters — callers decide where the bytes go (the bench
//! binaries and examples write under `results/`).

use crate::hist::Histogram;
use crate::recorder::Recorder;
use std::fmt::Write as _;

/// Header used by [`latency_summary_csv`].
pub const LATENCY_CSV_HEADER: &str = "scope,name,count,p50_us,p95_us,p99_us,max_us,mean_us";

fn push_row(out: &mut String, scope: &str, name: &str, h: &Histogram) {
    let _ = writeln!(
        out,
        "{},{},{},{},{},{},{},{:.1}",
        scope,
        name,
        h.count(),
        h.p50(),
        h.p95(),
        h.p99(),
        h.max(),
        h.mean()
    );
}

/// One CSV with a row per non-empty histogram: message-class delivery
/// latencies (`scope=class`) followed by application-span durations
/// (`scope=span`, named by `span_label`). Deterministic: rows follow
/// `ALL_CLASSES` order, then span kinds ascending.
pub fn latency_summary_csv(rec: &Recorder, span_label: &dyn Fn(u32) -> &'static str) -> String {
    let mut out = String::new();
    out.push_str(LATENCY_CSV_HEADER);
    out.push('\n');
    for (class, h) in rec.class_latencies() {
        push_row(&mut out, "class", class.label(), h);
    }
    for (kind, h) in rec.span_histograms() {
        push_row(&mut out, "span", span_label(kind), h);
    }
    out
}
