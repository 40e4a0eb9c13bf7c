//! Serializable snapshot of the metrics registry.

use crate::json::write_json_string;
use crate::metrics::SpanAgg;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time copy of every recorded metric, suitable for embedding in
/// reports (`--metrics-out`, `qdd serve` responses).
///
/// Construction sorts all names, so two snapshots of identical recordings
/// serialize byte-identically regardless of recording order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Named monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named gauges (last/max value), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Per-span wall-time aggregates, sorted by name.
    pub spans: Vec<(String, SpanAgg)>,
    /// Events dropped after the buffer cap was hit.
    pub dropped_events: u64,
}

impl Snapshot {
    pub(crate) fn build(
        counters: &BTreeMap<&'static str, u64>,
        gauges: &BTreeMap<&'static str, f64>,
        spans: &BTreeMap<&'static str, SpanAgg>,
        dropped_events: u64,
    ) -> Self {
        Snapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            spans: spans.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            dropped_events,
        }
    }

    /// Folds another snapshot into this one — the cross-thread aggregation
    /// step behind [`crate::merged_snapshot`]. Semantics per kind:
    ///
    /// * **counters** — summed (they are monotonic totals);
    /// * **gauges** — the maximum wins (the conservative merge for
    ///   high-water marks, and a defined one for everything else);
    /// * **spans** — counts and totals summed, `max_ns` combined;
    /// * **dropped_events** — summed.
    ///
    /// Names stay sorted, so merging preserves deterministic serialization.
    pub fn merge(&mut self, other: &Snapshot) {
        merge_sorted(&mut self.counters, &other.counters, |a, b| *a += b);
        merge_sorted(&mut self.gauges, &other.gauges, |a, b| *a = a.max(b));
        merge_sorted(&mut self.spans, &other.spans, |a, b| {
            a.count += b.count;
            a.total_ns = a.total_ns.saturating_add(b.total_ns);
            a.max_ns = a.max_ns.max(b.max_ns);
        });
        self.dropped_events += other.dropped_events;
    }

    /// The value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// The value of a gauge, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The aggregate of a span name, if recorded.
    pub fn span_stats(&self, name: &str) -> Option<&SpanAgg> {
        self.spans.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Serializes the snapshot as one line of JSON, without a trailing
    /// newline: the `qdd-metrics-v1` document `--metrics-out` writes and
    /// `qdd serve` embeds in every response.
    ///
    /// Layout (stable, checked by `scripts/check_trace.py`; shown wrapped):
    ///
    /// ```json
    /// {"schema":"qdd-metrics-v1","counters":{"name":3},"gauges":{"name":0.97},
    ///  "spans":{"name":{"count":1,"total_ns":1200,"max_ns":1200}},"dropped_events":0}
    /// ```
    ///
    /// Gauges that are not finite are written as `null`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"schema\":\"qdd-metrics-v1\",\"counters\":");
        write_object(&mut s, &self.counters, |s, v| {
            let _ = write!(s, "{v}");
        });
        s.push_str(",\"gauges\":");
        write_object(&mut s, &self.gauges, |s, v| {
            crate::Value::F64(*v).write_json(s)
        });
        s.push_str(",\"spans\":");
        write_object(&mut s, &self.spans, |s, a| {
            let _ = write!(
                s,
                "{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                a.count, a.total_ns, a.max_ns
            );
        });
        let _ = write!(s, ",\"dropped_events\":{}}}", self.dropped_events);
        s
    }
}

/// Writes a sorted name/value list as one JSON object, each value by
/// `value`.
fn write_object<V>(out: &mut String, entries: &[(String, V)], value: impl Fn(&mut String, &V)) {
    out.push('{');
    for (i, (name, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(out, name);
        out.push(':');
        value(out, v);
    }
    out.push('}');
}

/// Merges the sorted name/value list `src` into the sorted list `dst`,
/// combining values for shared names with `fold` and inserting the rest.
/// Both lists stay sorted by name.
fn merge_sorted<V: Clone>(
    dst: &mut Vec<(String, V)>,
    src: &[(String, V)],
    mut fold: impl FnMut(&mut V, V),
) {
    for (name, value) in src {
        match dst.binary_search_by(|(k, _)| k.as_str().cmp(name.as_str())) {
            Ok(i) => fold(&mut dst[i].1, value.clone()),
            Err(i) => dst.insert(i, (name.clone(), value.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_serializes() {
        assert_eq!(
            Snapshot::default().to_json(),
            "{\"schema\":\"qdd-metrics-v1\",\"counters\":{},\"gauges\":{},\
             \"spans\":{},\"dropped_events\":0}"
        );
    }

    #[test]
    fn to_json_is_single_line_and_parseable() {
        use crate::json::{parse_json, JsonValue};
        let snap = Snapshot {
            counters: vec![("a.b".into(), 3)],
            gauges: vec![("g\"q".into(), 1.5), ("inf".into(), f64::INFINITY)],
            spans: vec![(
                "s".into(),
                SpanAgg {
                    count: 2,
                    total_ns: 30,
                    max_ns: 20,
                },
            )],
            dropped_events: 1,
        };
        let json = snap.to_json();
        assert!(!json.contains('\n'));
        let parsed = parse_json(&json).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some("qdd-metrics-v1")
        );
        let member =
            |section: &str, name: &str| parsed.get(section).unwrap().get(name).unwrap().clone();
        assert_eq!(member("counters", "a.b").as_u64(), Some(3));
        assert_eq!(member("gauges", "g\"q").as_f64(), Some(1.5));
        assert_eq!(member("gauges", "inf"), JsonValue::Null);
        assert_eq!(
            member("spans", "s")
                .get("total_ns")
                .and_then(JsonValue::as_u64),
            Some(30)
        );
        assert_eq!(
            parsed.get("dropped_events").and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn snapshot_is_deterministic_across_recording_order() {
        // Two collectors fed the same data in different orders must
        // serialize byte-identically: BTreeMap ordering is the contract.
        let mut a: BTreeMap<&'static str, u64> = BTreeMap::new();
        a.insert("zeta", 1);
        a.insert("alpha", 2);
        let mut b: BTreeMap<&'static str, u64> = BTreeMap::new();
        b.insert("alpha", 2);
        b.insert("zeta", 1);
        let empty_g = BTreeMap::new();
        let empty_s = BTreeMap::new();
        let sa = Snapshot::build(&a, &empty_g, &empty_s, 0);
        let sb = Snapshot::build(&b, &empty_g, &empty_s, 0);
        assert_eq!(sa, sb);
        assert_eq!(sa.to_json(), sb.to_json());
        assert!(sa.to_json().find("alpha").unwrap() < sa.to_json().find("zeta").unwrap());
    }
}
