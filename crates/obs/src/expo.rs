//! Exposition: render a [`Snapshot`] as Prometheus text format, with no
//! serializer dependency.
//!
//! The Prometheus renderer follows the text exposition format: one
//! `# HELP` / `# TYPE` block per metric name, histograms expanded into
//! cumulative `_bucket{le="…"}` series plus `_sum` and `_count`.
//! Histograms record nanoseconds and the `le` bounds are emitted in the
//! metric's own unit (the name carries the `_ns` suffix), keeping the
//! series self-describing. Only non-empty buckets are emitted (cumulative
//! counts stay correct — an omitted bucket adds nothing), plus the
//! mandatory `+Inf` bucket; the exposition lint in
//! `crates/obs/tests/exposition.rs` parses the output back and checks the
//! format invariants.
//!
//! Buckets whose histogram captured an exemplar (see
//! [`LatencyHistogram::record_exemplar`](crate::LatencyHistogram::record_exemplar))
//! carry it in OpenMetrics exemplar syntax —
//! `…_bucket{le="X"} N # {trace_id="<16-hex>"} value` — so a tail bucket
//! links directly to a trace in `/debug/traces`. Plain-Prometheus
//! scrapers that split on the first space still parse the line; the lint
//! validates the exemplar grammar too.

use crate::registry::{Snapshot, Value};
use std::fmt::Write;

/// Escape a HELP string: backslashes and newlines per the text format.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: backslashes, quotes, newlines.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render `{k="v",…}` (empty string for no labels), with `extra` appended
/// (used for the `le` label of histogram buckets).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render the snapshot in Prometheus text exposition format.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in &snap.series {
        // One HELP/TYPE block per name; labeled variants follow under it.
        if last_name != Some(s.name.as_str()) {
            let kind = match &s.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) | Value::Float(_) => "gauge",
                Value::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", s.name, escape_help(&s.help));
            let _ = writeln!(out, "# TYPE {} {kind}", s.name);
            last_name = Some(s.name.as_str());
        }
        match &s.value {
            Value::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", s.name, label_block(&s.labels, None));
            }
            Value::Gauge(v) => {
                let _ = writeln!(out, "{}{} {v}", s.name, label_block(&s.labels, None));
            }
            Value::Float(v) => {
                let _ = writeln!(out, "{}{} {v}", s.name, label_block(&s.labels, None));
            }
            Value::Histogram(h) => {
                let total = h.count();
                // Exemplars keyed by their bucket's upper bound; the
                // overflow bucket's (hi == u64::MAX) rides on +Inf.
                let exemplar_at = |hi: u64| -> String {
                    h.exemplars()
                        .iter()
                        .find(|e| crate::hist::bucket_bounds(e.bucket).1 == hi)
                        .map(|e| {
                            format!(
                                " # {{trace_id=\"{e:016x}\"}} {v}",
                                e = e.trace_id,
                                v = e.value
                            )
                        })
                        .unwrap_or_default()
                };
                for (hi, cum) in h.cumulative() {
                    // The overflow bucket's bound is u64::MAX; it is
                    // indistinguishable from +Inf, which follows anyway.
                    if hi == u64::MAX {
                        continue;
                    }
                    let le = hi.to_string();
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cum}{}",
                        s.name,
                        label_block(&s.labels, Some(("le", &le))),
                        exemplar_at(hi)
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{} {total}{}",
                    s.name,
                    label_block(&s.labels, Some(("le", "+Inf"))),
                    exemplar_at(u64::MAX)
                );
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    h.sum
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {total}",
                    s.name,
                    label_block(&s.labels, None)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    #[test]
    fn prometheus_text_has_help_type_and_samples() {
        let reg = Registry::new();
        reg.counter("odnet_requests_total", "Requests accepted")
            .add(5);
        let h = reg.histogram("odnet_wait_ns", "Queue wait");
        h.record(100);
        h.record(900);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE odnet_requests_total counter"));
        assert!(text.contains("odnet_requests_total 5"));
        assert!(text.contains("# TYPE odnet_wait_ns histogram"));
        assert!(text.contains("odnet_wait_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("odnet_wait_ns_sum 1000"));
        assert!(text.contains("odnet_wait_ns_count 2"));
    }

    #[test]
    fn exemplars_render_in_openmetrics_syntax() {
        let reg = Registry::new();
        let h = reg.histogram("odnet_e2e_ns", "Request e2e");
        h.record(100);
        h.record_exemplar(900, 0xabcd);
        let text = reg.snapshot().to_prometheus();
        let line = text
            .lines()
            .find(|l| l.contains(" # "))
            .expect("an exemplar-bearing bucket line");
        assert!(
            line.contains("# {trace_id=\"000000000000abcd\"} 900"),
            "bad exemplar syntax: {line}"
        );
        // Un-exemplared buckets stay plain.
        assert!(text
            .lines()
            .filter(|l| l.starts_with("odnet_e2e_ns_bucket"))
            .any(|l| !l.contains(" # ")));
    }
}
