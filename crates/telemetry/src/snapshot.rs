//! Serializable snapshot of the metrics registry.

use crate::json::write_json_string;
use crate::metrics::{Histogram, HistogramSnapshot, SpanAgg};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time copy of every recorded metric, suitable for embedding in
/// reports (`--metrics-out`, `BENCH_current.json`).
///
/// Construction sorts all names, so two snapshots of identical recordings
/// serialize byte-identically regardless of recording order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Named monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named gauges (last/max value), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Named histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Per-span wall-time aggregates, sorted by name.
    pub spans: Vec<(String, SpanAgg)>,
    /// Events dropped after the buffer cap was hit.
    pub dropped_events: u64,
}

impl Snapshot {
    pub(crate) fn build(
        counters: &BTreeMap<&'static str, u64>,
        gauges: &BTreeMap<&'static str, f64>,
        histograms: &BTreeMap<&'static str, Histogram>,
        spans: &BTreeMap<&'static str, SpanAgg>,
        dropped_events: u64,
    ) -> Self {
        Snapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: histograms
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
            spans: spans.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            dropped_events,
        }
    }

    /// Folds another snapshot into this one — the cross-thread aggregation
    /// step behind [`crate::merged_snapshot`]. Semantics per kind:
    ///
    /// * **counters** — summed (they are monotonic totals);
    /// * **gauges** — the maximum wins (levels and rates; the conservative
    ///   merge for high-water marks, and a defined one for everything else);
    /// * **histograms** — bucket-wise sum, min/max combined;
    /// * **spans** — counts and totals summed, `max_ns` combined;
    /// * **dropped_events** — summed.
    ///
    /// Names stay sorted, so merging preserves deterministic serialization.
    pub fn merge(&mut self, other: &Snapshot) {
        merge_sorted(&mut self.counters, &other.counters, |a, b| *a += b);
        merge_sorted(&mut self.gauges, &other.gauges, |a, b| *a = a.max(b));
        merge_sorted(&mut self.histograms, &other.histograms, |a, b| {
            a.merge(&b);
        });
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

    /// Serializes the snapshot as a self-contained JSON document.
    ///
    /// Layout (stable, checked by `scripts/check_trace.py`):
    ///
    /// ```json
    /// {
    ///   "schema": "qdd-metrics-v1",
    ///   "counters": {"name": 3},
    ///   "gauges": {"name": 0.97},
    ///   "histograms": {"name": {"count":2,"sum":9,"min":4,"max":5,
    ///                           "buckets":[[4,7,2]]}},
    ///   "spans": {"name": {"count":1,"total_ns":1200,"max_ns":1200}},
    ///   "dropped_events": 0
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"schema\": \"qdd-metrics-v1\",\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            write_json_string(&mut s, name);
            let _ = write!(s, ": {v}");
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            write_json_string(&mut s, name);
            s.push_str(": ");
            crate::Value::F64(*v).write_json(&mut s);
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            write_json_string(&mut s, name);
            let _ = write!(
                s,
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.min, h.max
            );
            for (j, (lo, hi, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{lo},{hi},{c}]");
            }
            s.push_str("]}");
        }
        s.push_str("\n  },\n  \"spans\": {");
        for (i, (name, a)) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            write_json_string(&mut s, name);
            let _ = write!(
                s,
                ": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                a.count, a.total_ns, a.max_ns
            );
        }
        let _ = write!(
            s,
            "\n  }},\n  \"dropped_events\": {}\n}}\n",
            self.dropped_events
        );
        s
    }
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
        let snap = Snapshot::default();
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"qdd-metrics-v1\""));
        assert!(json.contains("\"counters\": {"));
        assert!(json.contains("\"dropped_events\": 0"));
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
        let empty_h = BTreeMap::new();
        let empty_s = BTreeMap::new();
        let sa = Snapshot::build(&a, &empty_g, &empty_h, &empty_s, 0);
        let sb = Snapshot::build(&b, &empty_g, &empty_h, &empty_s, 0);
        assert_eq!(sa, sb);
        assert_eq!(sa.to_json(), sb.to_json());
        assert!(sa.to_json().find("alpha").unwrap() < sa.to_json().find("zeta").unwrap());
    }
}
