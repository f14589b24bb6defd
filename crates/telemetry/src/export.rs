//! Exporters: the machine-readable JSONL dump and the human-readable
//! federation "ops report".
//!
//! Each trace event prints straight into the output as one JSONL line,
//! in the bytes `serde_json` gives the event's object map: keys in
//! sorted order, numbers by [`Number`]'s `Display`, strings with its
//! escapes. The few meta and metric lines go through `serde_json`'s
//! `Value`. Events are emitted in ring order, so two runs that record the
//! same values produce byte-identical artifacts, which the test suite
//! asserts.

use std::fmt::{self, Write as _};

use serde_json::{json, Number, Value};

use crate::metrics::{HistogramSnapshot, MetricsCore};
use crate::trace::{AttrValue, TraceCore, TraceEvent};

/// Bytes reserved per JSONL line before the export writes its first.
/// Trace lines average less than this (89 bytes over `table3_udr`'s
/// 53,201 lines, most of them flow points), so the buffer is allocated
/// once, in proportion to the trace; a trace whose lines run longer
/// grows it by doubling from that size, never from the first line's
/// length.
const LINE_BYTES: usize = 96;

/// Append the integer `n` as a JSON number.
fn write_int(out: &mut String, n: impl fmt::Display) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{n}");
}

/// Append `x` as `serde_json` prints an `f64`: `null` when it is not
/// finite (JSON has no form for it), else by [`Number`]'s `Display`.
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{}", Number::Float(x));
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a JSON string, with `serde_json`'s escapes: `"`, `\`
/// and the named control characters by name, the other controls below
/// U+0020 as `\u00XX`. Unescaped runs are copied whole; every byte
/// that needs an escape is ASCII, so slicing at it keeps UTF-8 intact.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0..0x20 => None,
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        match escape {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Append `v` as one JSONL line, by its compact `Display`.
fn line(out: &mut String, v: Value) {
    let _ = writeln!(out, "{v}");
}

/// Append `ev` as one JSONL line. Keys come in sorted order, the order
/// of the object map `serde_json` would build.
fn write_event(out: &mut String, ev: &TraceEvent) {
    match ev {
        TraceEvent::SpanStart {
            id,
            parent,
            name,
            t,
        } => {
            out.push_str("{\"id\":");
            write_int(out, id.0);
            out.push_str(",\"kind\":\"span_start\",\"name\":");
            write_str(out, name);
            if let Some(p) = parent {
                out.push_str(",\"parent\":");
                write_int(out, p.0);
            }
            out.push_str(",\"t_ns\":");
            write_int(out, t.as_nanos());
        }
        TraceEvent::SpanEnd { id, t } => {
            out.push_str("{\"id\":");
            write_int(out, id.0);
            out.push_str(",\"kind\":\"span_end\",\"t_ns\":");
            write_int(out, t.as_nanos());
        }
        TraceEvent::Attr { span, key, value } => {
            out.push_str("{\"key\":");
            write_str(out, key);
            out.push_str(",\"kind\":\"attr\",\"span\":");
            write_int(out, span.0);
            out.push_str(",\"value\":");
            match value {
                AttrValue::U64(n) => write_int(out, n),
                AttrValue::I64(n) => write_int(out, n),
                AttrValue::F64(x) => write_f64(out, *x),
                AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                AttrValue::Str(s) => write_str(out, s),
            }
        }
        TraceEvent::Point { name, t, value } => {
            out.push_str("{\"kind\":\"point\",\"name\":");
            write_str(out, name);
            out.push_str(",\"t_ns\":");
            write_int(out, t.as_nanos());
            out.push_str(",\"value\":");
            write_f64(out, *value);
        }
    }
    out.push_str("}\n");
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

/// Serialize the full trace + metrics state as JSONL into `out`: a meta
/// line, every trace event in ring order, then the counters, gauges and
/// histograms. `out` is reserved once, [`LINE_BYTES`] a line, so its
/// capacity follows the trace's size. Each event prints straight into
/// it, in the bytes its `serde_json` object map would print (no `Value`
/// is built for it); the meta and metric lines are `Value`s written by
/// their compact `Display`.
pub(crate) fn write_jsonl(trace: &TraceCore, metrics: &MetricsCore, out: &mut String) {
    let lines = 1
        + trace.events.len()
        + metrics.counters.names.len()
        + metrics.gauges.names.len()
        + metrics.histograms.names.len();
    out.reserve(lines * LINE_BYTES);
    line(
        out,
        json!({
            "kind": "meta",
            "format": "osdc-telemetry/1",
            "events": trace.events.len() as u64,
            "dropped_events": trace.dropped,
        }),
    );
    for ev in &trace.events {
        write_event(out, ev);
    }
    for (name, value) in metrics.counters.names.iter().zip(&metrics.counters.values) {
        line(
            out,
            json!({"kind": "counter", "name": name.as_str(), "value": *value}),
        );
    }
    for (name, value) in metrics.gauges.names.iter().zip(&metrics.gauges.values) {
        line(
            out,
            json!({"kind": "gauge", "name": name.as_str(), "value": *value}),
        );
    }
    for (name, h) in metrics
        .histograms
        .names
        .iter()
        .zip(&metrics.histograms.values)
    {
        line(out, histogram_to_json(&HistogramSnapshot::from(name, h)));
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

#[cfg(test)]
mod tests {
    use osdc_sim::{SimDuration, SimTime};
    use serde_json::Map;

    use super::*;
    use crate::trace::SpanId;

    /// `ev`'s line as `serde_json` prints the object map of it: the
    /// reference [`write_event`] must match byte for byte.
    fn reference_line(ev: &TraceEvent) -> String {
        let attr = |v: &AttrValue| match v {
            AttrValue::U64(n) => json!(*n),
            AttrValue::I64(n) => json!(*n),
            AttrValue::F64(x) => json!(*x),
            AttrValue::Bool(b) => json!(*b),
            AttrValue::Str(s) => json!(s.as_str()),
        };
        let v = match ev {
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
                "value": attr(value),
            }),
            TraceEvent::Point { name, t, value } => json!({
                "kind": "point",
                "name": name.as_str(),
                "t_ns": t.as_nanos(),
                "value": *value,
            }),
        };
        format!("{v}\n")
    }

    #[test]
    fn every_event_shape_prints_its_serde_json_line() {
        let t = SimTime::ZERO + SimDuration::from_nanos(86_400_123_456_789);
        let awkward = "quote \" backslash \\ newline \n control \u{1} accent é";
        let mut events = vec![
            TraceEvent::SpanStart {
                id: SpanId(7),
                parent: Some(SpanId(3)),
                name: "transfer/stage/disk_read".into(),
                t,
            },
            TraceEvent::SpanStart {
                id: SpanId(1),
                parent: None,
                name: awkward.into(),
                t: SimTime::ZERO,
            },
            TraceEvent::SpanEnd { id: SpanId(7), t },
        ];
        let values = [
            AttrValue::U64(u64::MAX),
            AttrValue::I64(-42),
            AttrValue::I64(i64::MIN),
            AttrValue::Bool(true),
            AttrValue::Bool(false),
            AttrValue::Str(awkward.into()),
            AttrValue::Str(String::new()),
        ]
        .into_iter()
        .chain(
            [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.5,
                3.0,
                1e15,
                1e-7,
                -0.0,
            ]
            .map(AttrValue::F64),
        );
        for value in values {
            events.push(TraceEvent::Attr {
                span: SpanId(7),
                key: "bytes".into(),
                value,
            });
        }
        events.push(TraceEvent::Attr {
            span: SpanId(1),
            key: awkward.into(),
            value: AttrValue::U64(0),
        });
        for value in [123.456_789, f64::NAN] {
            events.push(TraceEvent::Point {
                name: "net.flow3.mbps".into(),
                t,
                value,
            });
        }
        for ev in &events {
            let mut out = String::new();
            write_event(&mut out, ev);
            assert_eq!(out, reference_line(ev), "{ev:?}");
        }
    }
}
