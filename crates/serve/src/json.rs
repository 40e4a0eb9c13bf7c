//! JSON helpers for the API: string escaping, compact writers, and typed
//! accessors over the workspace's hand-rolled parser.
//!
//! Parsing and escaping are [`qdd_telemetry::json`]'s — the same parser
//! the timeline inspector uses — so the daemon adds no serialization
//! dependency. Responses are single-line objects with manually escaped
//! strings and a deterministic member order; their `telemetry` member is
//! [`qdd_telemetry::Snapshot::to_json`].

pub use qdd_telemetry::json::{parse_json, JsonValue};

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
}
