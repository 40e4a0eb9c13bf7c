//! Structured events: a timestamp, a name, and typed key–value fields.

/// A typed field value on an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Short string (gate names, outcome labels).
    Str(String),
    /// Short list of small integers (an op's qubits, per-level node
    /// counts).
    List(Vec<u32>),
}

impl Value {
    /// Serializes the value as a JSON literal into `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            // JSON has no NaN/Inf; encode as null rather than corrupt the
            // document.
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => crate::json::write_json_string(out, s),
            Value::List(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u32>> for Value {
    fn from(v: Vec<u32>) -> Self {
        Value::List(v)
    }
}

/// One recorded occurrence: an instant (measurement outcome, pressure GC)
/// or a closed span (with duration).
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Microseconds since the process-wide telemetry epoch, the one clock
    /// every thread stamps with.
    pub ts_us: u64,
    /// `Some(duration)` for span events, `None` for instants.
    pub dur_us: Option<u64>,
    /// Stable event name (dot-separated, e.g. `"sim.op"`).
    pub name: &'static str,
    /// Span nesting depth at emission.
    pub depth: u16,
    /// The recording thread's lane ([`crate::set_lane`]): 0 for the
    /// coordinator, `w + 1` for shot worker `w`.
    pub lane: u32,
    /// Typed payload fields, in insertion order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// The value of a field, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Builder returned by [`emit`](crate::emit); records the event when
/// dropped. Inert when telemetry is disabled.
pub struct EventBuilder {
    ev: Option<Event>,
}

impl EventBuilder {
    pub(crate) fn inert() -> Self {
        EventBuilder { ev: None }
    }

    pub(crate) fn new(ev: Event) -> Self {
        EventBuilder { ev: Some(ev) }
    }

    /// Attaches a typed field. The event is recorded when the builder
    /// drops, so discarding the return value ends the chain.
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if let Some(ev) = &mut self.ev {
            ev.fields.push((key, value.into()));
        }
        self
    }
}

impl Drop for EventBuilder {
    fn drop(&mut self) {
        if let Some(ev) = self.ev.take() {
            crate::record_event(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_json_forms() {
        let cases: &[(Value, &str)] = &[
            (Value::U64(7), "7"),
            (Value::I64(-3), "-3"),
            (Value::F64(1.5), "1.5"),
            (Value::F64(f64::NAN), "null"),
            (Value::Bool(true), "true"),
            (Value::Str("a\"b".into()), "\"a\\\"b\""),
            (Value::List(vec![3, 0]), "[3,0]"),
            (Value::List(Vec::new()), "[]"),
        ];
        for (v, want) in cases {
            let mut out = String::new();
            v.write_json(&mut out);
            assert_eq!(&out, want);
        }
    }

    #[test]
    fn field_lookup() {
        let ev = Event {
            ts_us: 0,
            dur_us: None,
            name: "e",
            depth: 0,
            lane: 0,
            fields: vec![("a", Value::U64(1)), ("b", Value::Bool(false))],
        };
        assert_eq!(ev.field("a"), Some(&Value::U64(1)));
        assert_eq!(ev.field("missing"), None);
    }
}
