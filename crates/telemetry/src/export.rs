//! Exporters: the machine-readable JSONL dump and the human-readable
//! federation "ops report".
//!
//! JSONL lines are built from `serde_json` object maps, which are ordered
//! `BTreeMap`s — key order is sorted, floats format deterministically, and
//! trace events are emitted in ring order. Two runs that record the same
//! values therefore produce byte-identical artifacts, which the test suite
//! asserts.

use serde_json::{json, Map, Value};

use crate::metrics::{HistogramSnapshot, MetricsCore};
use crate::trace::{AttrValue, TraceCore, TraceEvent};

fn attr_value_to_json(v: &AttrValue) -> Value {
    match v {
        AttrValue::U64(n) => json!(*n),
        AttrValue::I64(n) => json!(*n),
        AttrValue::F64(x) => json!(*x),
        AttrValue::Bool(b) => json!(*b),
        AttrValue::Str(s) => json!(s.as_str()),
    }
}

fn event_to_json(ev: &TraceEvent) -> Value {
    match ev {
        TraceEvent::SpanStart {
            id,
            parent,
            name,
            t,
        } => {
            let mut m = Map::new();
            m.insert("kind".into(), json!("span_start"));
            m.insert("id".into(), json!(id.0));
            if let Some(p) = parent {
                m.insert("parent".into(), json!(p.0));
            }
            m.insert("name".into(), json!(name.as_str()));
            m.insert("t_ns".into(), json!(t.as_nanos()));
            Value::Object(m)
        }
        TraceEvent::SpanEnd { id, t } => json!({
            "kind": "span_end",
            "id": id.0,
            "t_ns": t.as_nanos(),
        }),
        TraceEvent::Attr { span, key, value } => json!({
            "kind": "attr",
            "span": span.0,
            "key": key.as_str(),
            "value": attr_value_to_json(value),
        }),
        TraceEvent::Point { name, t, value } => json!({
            "kind": "point",
            "name": name.as_str(),
            "t_ns": t.as_nanos(),
            "value": *value,
        }),
    }
}

fn histogram_to_json(snap: &HistogramSnapshot) -> Value {
    json!({
        "kind": "histogram",
        "name": snap.name.as_str(),
        "count": snap.count,
        "sum": snap.sum,
        "mean": snap.mean,
        "p50": snap.p50,
        "p99": snap.p99,
        "buckets": snap.buckets
            .iter()
            .map(|&(i, c)| json!([i as u64, c]))
            .collect::<Vec<_>>(),
    })
}

/// Serialize the full trace + metrics state as JSONL into `out`.
pub(crate) fn write_jsonl(trace: &TraceCore, metrics: &MetricsCore, out: &mut String) {
    // Serializing a `Value` cannot fail: every map key is already a string.
    #[allow(clippy::expect_used)]
    let mut line = |v: Value| {
        out.push_str(&serde_json::to_string(&v).expect("telemetry JSON serializes"));
        out.push('\n');
    };
    line(json!({
        "kind": "meta",
        "format": "osdc-telemetry/1",
        "events": trace.events.len() as u64,
        "dropped_events": trace.dropped,
    }));
    for ev in &trace.events {
        line(event_to_json(ev));
    }
    for (name, value) in metrics.counters.names.iter().zip(&metrics.counters.values) {
        line(json!({"kind": "counter", "name": name.as_str(), "value": *value}));
    }
    for (name, value) in metrics.gauges.names.iter().zip(&metrics.gauges.values) {
        line(json!({"kind": "gauge", "name": name.as_str(), "value": *value}));
    }
    for (name, h) in metrics
        .histograms
        .names
        .iter()
        .zip(&metrics.histograms.values)
    {
        line(histogram_to_json(&HistogramSnapshot::from(name, h)));
    }
}

/// Render the human-readable federation ops report: every counter, gauge
/// and histogram the run registered, in the style of the §7.4 status page.
pub(crate) fn ops_report(trace: &TraceCore, metrics: &MetricsCore) -> String {
    let mut out = String::new();
    let rule = "-".repeat(72);
    out.push_str("federation ops report\n");
    out.push_str(&rule);
    out.push('\n');

    if !metrics.counters.names.is_empty() {
        out.push_str("counters\n");
        for (name, value) in metrics.counters.names.iter().zip(&metrics.counters.values) {
            out.push_str(&format!("  {name:<44} {value:>18}\n"));
        }
    }
    if !metrics.gauges.names.is_empty() {
        out.push_str("gauges\n");
        for (name, value) in metrics.gauges.names.iter().zip(&metrics.gauges.values) {
            out.push_str(&format!("  {name:<44} {value:>18.3}\n"));
        }
    }
    if !metrics.histograms.names.is_empty() {
        out.push_str("histograms                                      count       mean        p50        p99\n");
        for (name, h) in metrics
            .histograms
            .names
            .iter()
            .zip(&metrics.histograms.values)
        {
            out.push_str(&format!(
                "  {name:<40} {:>9} {:>10.2} {:>10.0} {:>10.0}\n",
                h.count(),
                h.mean(),
                h.quantile_upper_bound(0.5),
                h.quantile_upper_bound(0.99),
            ));
        }
    }
    out.push_str(&rule);
    out.push('\n');
    out.push_str(&format!(
        "trace: {} events buffered, {} dropped\n",
        trace.events.len(),
        trace.dropped
    ));
    out
}
