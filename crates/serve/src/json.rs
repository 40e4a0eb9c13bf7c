//! JSON helpers for the API: string escaping, compact writers, and typed
//! accessors over the workspace's hand-rolled parser.
//!
//! Parsing and escaping are [`qdd_telemetry::json`]'s — the same parser
//! the timeline inspector uses — so the daemon adds no serialization
//! dependency. Writing follows the `qdd-stats-v1` conventions: single-line
//! objects, manually escaped strings, deterministic member order.

pub use qdd_telemetry::json::{parse_json, JsonValue};

use qdd_telemetry::Snapshot;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document (quotes not
/// included), with [`qdd_telemetry::json::write_json_string`].
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    qdd_telemetry::json::write_json_string(&mut out, s);
    out.pop();
    out.remove(0);
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot carry).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A compact (single-line) rendition of a telemetry snapshot, embedded in
/// API responses. Carries the counters, gauges, and span aggregates of the
/// request's scope; histograms are summarized by their aggregate fields.
pub fn snapshot_json(snap: &Snapshot) -> String {
    let mut s = String::from("{\"schema\":\"qdd-metrics-v1\",\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{}", esc(name), v);
    }
    s.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{}", esc(name), num(*v));
    }
    s.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
            esc(name),
            h.count,
            h.sum,
            h.min,
            h.max
        );
    }
    s.push_str("},\"spans\":{");
    for (i, (name, a)) in snap.spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
            esc(name),
            a.count,
            a.total_ns,
            a.max_ns
        );
    }
    let _ = write!(s, "}},\"dropped_events\":{}}}", snap.dropped_events);
    s
}

/// Member lookup returning a `u64`, if present and numeric.
pub fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key).and_then(JsonValue::as_u64)
}

/// Member lookup returning an `f64`, if present and numeric.
pub fn get_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

/// Member lookup returning a string slice, if present and a string.
pub fn get_str<'a>(v: &'a JsonValue, key: &str) -> Option<&'a str> {
    v.get(key).and_then(JsonValue::as_str)
}

/// Member lookup returning a bool, if present and boolean.
pub fn get_bool(v: &JsonValue, key: &str) -> Option<bool> {
    match v.get(key) {
        Some(JsonValue::Bool(b)) => Some(*b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let nasty = "qasm \"2.0\";\n\tinclude \\ control\u{1}";
        let doc = format!("{{\"s\":\"{}\"}}", esc(nasty));
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(get_str(&parsed, "s"), Some(nasty));
    }

    #[test]
    fn snapshot_json_is_single_line_and_parseable() {
        let mut snap = Snapshot::default();
        snap.counters.push(("a.b".into(), 3));
        snap.gauges.push(("g".into(), 1.5));
        let json = snapshot_json(&snap);
        assert!(!json.contains('\n'));
        let parsed = parse_json(&json).unwrap();
        assert_eq!(
            get_str(&parsed, "schema"),
            Some("qdd-metrics-v1")
        );
        assert_eq!(get_u64(parsed.get("counters").unwrap(), "a.b"), Some(3));
    }
}
