//! Reading a recorded run back: the Chrome trace of `--trace-out`
//! ([`qdd_telemetry::sink::write_chrome_trace`]) parsed into an
//! inspectable model, the input of the HTML inspector
//! ([`crate::html::timeline_report`]). Events are read one at a time with
//! [`parse_json_streaming`], so a large trace is never held as one tree.

use qdd_complex::Complex;
use qdd_core::graph::{DdGraph, GraphEdge, GraphNode, NodeKind};
use qdd_core::MAX_QUBITS;
use qdd_telemetry::json::{parse_json_streaming, JsonValue};
use std::collections::{BTreeMap, HashSet};

/// The run a trace records: its `otherData` header and its worker count.
#[derive(Clone, Debug, Default)]
pub struct TimelineHeader {
    /// Workload / circuit name.
    pub circuit: String,
    /// Number of qubits in the circuit.
    pub qubits: usize,
    /// Number of operations in the circuit program.
    pub ops: usize,
    /// Structural-snapshot stride the run used (0 = off).
    pub snapshot_stride: u32,
    /// Number of workers (lanes) that recorded ops, at least 1.
    pub workers: u32,
    /// Events the run dropped at the buffer cap.
    pub dropped_events: u64,
}

/// One `sim.op` event with the engine events folded into it.
#[derive(Clone, Debug, Default)]
pub struct OpLine {
    /// Worker id: the event's lane (0 = coordinator).
    pub worker: u32,
    /// Run index within the worker: a new run starts wherever the op
    /// index stops increasing.
    pub run: u32,
    /// Index of the op in the circuit program.
    pub op_index: u64,
    /// Op kind.
    pub op: String,
    /// Qubits the op touches.
    pub qubits: Vec<u16>,
    /// Microseconds since the process-wide telemetry epoch.
    pub ts_us: u64,
    /// Wall time of the op in microseconds.
    pub dur_us: u64,
    /// Live vector nodes after the op.
    pub vec_nodes: u64,
    /// Live matrix nodes after the op.
    pub mat_nodes: u64,
    /// Live-node high-water mark after the op.
    pub peak_nodes: u64,
    /// Nodes created during the op.
    pub nodes_allocated: u64,
    /// Nodes reclaimed during the op.
    pub nodes_freed: u64,
    /// Interned complex values after the op.
    pub complex_entries: u64,
    /// Compute-table hits attributed to the op.
    pub compute_hits: u64,
    /// Compute-table misses attributed to the op.
    pub compute_misses: u64,
    /// Gate-DD-cache hits attributed to the op.
    pub gate_hits: u64,
    /// Gate-DD-cache misses attributed to the op.
    pub gate_misses: u64,
    /// Per-level node counts after the op (may be empty).
    pub levels: Vec<u32>,
    /// The engine events the worker recorded since its previous op,
    /// folded into their kinds: `gc` (a `core.gc` span) and `approx`
    /// (`degrade.approximate`), in that order.
    pub events: Vec<&'static str>,
}

/// The structural snapshot of a `sim.op` event, reconstructed.
#[derive(Clone, Debug)]
pub struct SnapshotLine {
    /// Worker id of the op the snapshot was taken after.
    pub worker: u32,
    /// Run index of that op.
    pub run: u32,
    /// Op index the snapshot was taken after.
    pub op_index: u64,
    /// Node count of the snapshot.
    pub nodes: u64,
    /// The reconstructed diagram, renderable via
    /// [`crate::svg::graph_to_svg`].
    pub graph: DdGraph,
}

/// One span (`"ph":"X"`) event, the flamegraph source.
#[derive(Clone, Debug, Default)]
pub struct SpanLine {
    /// Worker (lane) that recorded the span (0 = coordinator).
    pub worker: u32,
    /// Span name.
    pub name: String,
    /// Start, microseconds since the process-wide telemetry epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth.
    pub depth: u16,
}

/// A fully read trace.
#[derive(Clone, Debug, Default)]
pub struct TimelineDoc {
    /// The header.
    pub header: TimelineHeader,
    /// Op records in trace (merged, deterministic) order.
    pub ops: Vec<OpLine>,
    /// Structural snapshots in trace order.
    pub snapshots: Vec<SnapshotLine>,
    /// Telemetry spans in completion order.
    pub spans: Vec<SpanLine>,
}

/// Reads a Chrome trace (the `{"traceEvents": […], "otherData": {…}}`
/// form `--trace-out` writes) one event at a time. A `sim.op` event
/// becomes an op record on its lane's worker, with its snapshot if it has
/// one; `"ph":"X"` events become spans; metadata records are skipped.
///
/// # Errors
///
/// A message naming the first offending event and member: bad JSON, no
/// `traceEvents` array, a missing `ts`, `dur` or `op_index`, or a
/// snapshot whose graph is inconsistent.
pub fn parse_trace(text: &str) -> Result<TimelineDoc, String> {
    let mut doc = TimelineDoc::default();
    let mut lanes: BTreeMap<u32, Lane> = BTreeMap::new();
    let mut at = 0;
    let rest = parse_json_streaming(text, "traceEvents", |ev| {
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
        read_event(&mut doc, &mut lanes, name, &ev)
            .map_err(|e| format!("traceEvents[{at}] ({name}): {e}"))?;
        at += 1;
        Ok(())
    })?;
    let header = rest.get("otherData").unwrap_or(&JsonValue::Null);
    let field = |key| header.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    doc.header = TimelineHeader {
        circuit: header
            .get("circuit")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string(),
        qubits: field("qubits") as usize,
        ops: field("ops") as usize,
        snapshot_stride: field("snapshot_stride") as u32,
        workers: lanes
            .values()
            .filter(|l| l.last_index.is_some())
            .count()
            .max(1) as u32,
        dropped_events: field("dropped_events"),
    };
    Ok(doc)
}

/// The trace events that fold into the next op of their lane, and the
/// kind each becomes in [`OpLine::events`].
const FOLDED: [(&str, &str); 2] = [("core.gc", "gc"), ("degrade.approximate", "approx")];

/// A lane's reading state: its runs so far, and which [`FOLDED`] events
/// it recorded since its last op.
#[derive(Default)]
struct Lane {
    run: u32,
    last_index: Option<u64>,
    fired: [bool; FOLDED.len()],
}

/// Adds one trace event named `name` to `doc`.
fn read_event(
    doc: &mut TimelineDoc,
    lanes: &mut BTreeMap<u32, Lane>,
    name: &str,
    ev: &JsonValue,
) -> Result<(), String> {
    let ph = ev.get("ph").and_then(JsonValue::as_str);
    if ph == Some("M") {
        return Ok(());
    }
    let need = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing numeric \"{key}\""))
    };
    let ts_us = need(ev, "ts")?;
    let worker = need(ev, "tid")?.saturating_sub(1) as u32;
    if ph == Some("X") {
        doc.spans.push(SpanLine {
            worker,
            name: name.to_string(),
            ts_us,
            dur_us: need(ev, "dur")?,
            depth: ev.get("depth").and_then(JsonValue::as_u64).unwrap_or(0) as u16,
        });
    }
    let lane = lanes.entry(worker).or_default();
    if let Some(i) = FOLDED.iter().position(|(event, _)| *event == name) {
        lane.fired[i] = true;
    }
    if name != "sim.op" {
        return Ok(());
    }
    let args = ev.get("args").unwrap_or(&JsonValue::Null);
    let arg = |key| args.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    let list = |key| {
        let items = args.get(key).and_then(JsonValue::as_array).unwrap_or(&[]);
        items.iter().filter_map(JsonValue::as_u64)
    };
    let op_index = need(args, "op_index").map_err(|e| format!("args: {e}"))?;
    if lane.last_index.is_some_and(|last| op_index <= last) {
        lane.run += 1;
    }
    lane.last_index = Some(op_index);
    if let Some(graph) = args.get("snapshot") {
        doc.snapshots.push(SnapshotLine {
            worker,
            run: lane.run,
            op_index,
            nodes: arg("nodes"),
            graph: graph_from_json(graph).map_err(|e| format!("args.snapshot: {e}"))?,
        });
    }
    doc.ops.push(OpLine {
        worker,
        run: lane.run,
        op_index,
        op: args
            .get("op")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string(),
        qubits: list("qubits").map(|q| q as u16).collect(),
        ts_us,
        dur_us: arg("dur_us"),
        vec_nodes: arg("nodes"),
        mat_nodes: arg("mat_nodes"),
        peak_nodes: arg("peak_nodes"),
        nodes_allocated: arg("nodes_allocated"),
        nodes_freed: arg("nodes_freed"),
        complex_entries: arg("complex_entries"),
        compute_hits: arg("compute_hits"),
        compute_misses: arg("compute_misses"),
        gate_hits: arg("gate_hits"),
        gate_misses: arg("gate_misses"),
        levels: list("levels").map(|l| l as u32).collect(),
        events: FOLDED
            .iter()
            .zip(std::mem::take(&mut lane.fired))
            .filter_map(|(&(_, kind), fired)| fired.then_some(kind))
            .collect(),
    });
    Ok(())
}

/// Reconstructs a [`DdGraph`] from the JSON document `DdGraph::to_json`
/// produces — the inverse used to re-render per-stride snapshots without a
/// live package.
///
/// # Errors
///
/// Describes the first missing or mistyped member, and a graph the
/// renderers cannot draw: a `root`, edge `from` or edge `to` that names no
/// node, a node `var` not below `numLevels`, or `numLevels` past
/// [`MAX_QUBITS`].
pub fn graph_from_json(v: &JsonValue) -> Result<DdGraph, String> {
    let kind = match v.get("kind").and_then(JsonValue::as_str) {
        Some("vector") => NodeKind::Vector,
        Some("matrix") => NodeKind::Matrix,
        other => return Err(format!("graph: bad \"kind\" {other:?}")),
    };
    let complex = |v: Option<&JsonValue>, what: &str| -> Result<Complex, String> {
        let v = v.ok_or_else(|| format!("graph: missing {what}"))?;
        Ok(Complex {
            re: v.get("re").and_then(JsonValue::as_f64).unwrap_or(0.0),
            im: v.get("im").and_then(JsonValue::as_f64).unwrap_or(0.0),
        })
    };
    let key = |v: Option<&JsonValue>, what: &str| match v {
        Some(JsonValue::Null) | None => Ok(None),
        Some(k) => k
            .as_u64()
            .map(|k| Some(k as u32))
            .ok_or_else(|| format!("graph: non-numeric {what}")),
    };
    let small = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    let items = |key: &str| v.get(key).and_then(JsonValue::as_array).unwrap_or(&[]);
    let num_levels = small(v, "numLevels");
    if num_levels > MAX_QUBITS as u64 {
        return Err(format!(
            "graph: \"numLevels\" {num_levels} exceeds {MAX_QUBITS}"
        ));
    }
    let mut nodes = Vec::new();
    for n in items("nodes") {
        let key = key(n.get("key"), "key")?.ok_or("graph: node without key")?;
        let var = small(n, "var");
        if var >= num_levels {
            return Err(format!(
                "graph: node {key} has \"var\" {var}, not below \"numLevels\" {num_levels}"
            ));
        }
        nodes.push(GraphNode {
            key,
            var: var as u8,
            zero_mask: small(n, "zeroMask") as u8,
        });
    }
    let keys: HashSet<u32> = nodes.iter().map(|n| n.key).collect();
    let known = |key: Option<u32>, what: &str| match key {
        Some(key) if !keys.contains(&key) => Err(format!("graph: {what} {key} names no node")),
        _ => Ok(key),
    };
    let root = known(key(v.get("root"), "root")?, "\"root\"")?;
    let mut edges = Vec::new();
    for e in items("edges") {
        let from = key(e.get("from"), "edge source")?.ok_or("graph: edge without from")?;
        known(Some(from), "edge \"from\"")?;
        edges.push(GraphEdge {
            from,
            slot: small(e, "slot") as u8,
            to: known(key(e.get("to"), "edge target")?, "edge \"to\"")?,
            weight: complex(e.get("weight"), "edge weight")?,
            skip: small(e, "skip") as u8,
        });
    }
    Ok(DdGraph {
        kind,
        root_weight: complex(v.get("rootWeight"), "rootWeight")?,
        root,
        nodes,
        edges,
        num_levels: num_levels as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_core::{gates, Control, DdPackage};
    use qdd_telemetry::sink::{write_chrome_trace, TraceHeader};
    use qdd_telemetry::{Event, Value};

    fn bell() -> DdGraph {
        let mut dd = DdPackage::new();
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
        let bell = dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap();
        DdGraph::from_vector(&dd, bell)
    }

    #[test]
    fn graph_json_round_trips_through_reconstruction() {
        let original = bell();
        let json = qdd_telemetry::json::parse_json(&original.to_json()).unwrap();
        assert_eq!(original, graph_from_json(&json).unwrap());
    }

    fn event(
        lane: u32,
        name: &'static str,
        dur_us: Option<u64>,
        fields: Vec<(&'static str, Value)>,
    ) -> Event {
        Event {
            ts_us: 5,
            dur_us,
            name,
            depth: u16::from(dur_us.is_some()),
            lane,
            fields,
        }
    }

    fn op(lane: u32, op_index: u64, extra: Vec<(&'static str, Value)>) -> Event {
        let mut fields = vec![
            ("op_index", Value::U64(op_index)),
            ("op", Value::Str("h".into())),
            ("nodes", Value::U64(3)),
            ("qubits", Value::List(vec![0])),
            ("compute_hits", Value::U64(2)),
        ];
        fields.extend(extra);
        event(lane, "sim.op", None, fields)
    }

    /// `events` written as a trace and read back.
    fn read(events: &[Event]) -> TimelineDoc {
        let header = TraceHeader {
            circuit: "bell".to_string(),
            qubits: 2,
            ops: 2,
            snapshot_stride: 1,
            dropped_events: 3,
        };
        let mut out = Vec::new();
        write_chrome_trace(&mut out, events, &header).unwrap();
        parse_trace(&String::from_utf8(out).unwrap()).unwrap()
    }

    #[test]
    fn trace_reads_back_as_header_ops_snapshots_and_spans() {
        let doc = read(&[
            event(0, "core.pressure_gc", None, Vec::new()),
            event(0, "core.gc", Some(2), Vec::new()),
            op(0, 0, vec![("levels", Value::List(vec![1, 2]))]),
            op(0, 1, vec![("snapshot", Value::Str(bell().to_json()))]),
            event(0, "sim.run", Some(11), Vec::new()),
        ]);
        let h = &doc.header;
        assert_eq!((h.circuit.as_str(), h.qubits, h.ops), ("bell", 2, 2));
        assert_eq!((h.snapshot_stride, h.workers, h.dropped_events), (1, 1, 3));
        assert_eq!(doc.ops.len(), 2);
        let first = &doc.ops[0];
        assert_eq!(
            (first.op.as_str(), first.qubits.as_slice()),
            ("h", &[0][..])
        );
        assert_eq!(
            (first.vec_nodes, first.compute_hits, first.ts_us),
            (3, 2, 5)
        );
        assert_eq!(first.levels, vec![1, 2]);
        assert_eq!(first.events, ["gc"]);
        assert!(doc.ops[1].events.is_empty(), "the window closed with op 0");
        assert_eq!(doc.snapshots.len(), 1);
        let snap = &doc.snapshots[0];
        assert_eq!((snap.op_index, snap.nodes), (1, 3));
        assert_eq!(snap.graph, bell());
        let spans: Vec<_> = doc
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.dur_us, s.depth))
            .collect();
        assert_eq!(spans, [("core.gc", 2, 1), ("sim.run", 11, 1)]);
    }

    #[test]
    fn lanes_are_workers_and_restarts_are_runs() {
        let round = vec![
            ("nodes_removed", Value::U64(40)),
            ("fidelity_lower_bound", Value::F64(0.5)),
        ];
        let doc = read(&[
            op(0, 0, Vec::new()),
            op(1, 0, Vec::new()),
            op(1, 1, Vec::new()),
            event(1, "degrade.approximate", None, round.clone()),
            event(1, "degrade.approximate", None, round),
            op(1, 0, Vec::new()),
        ]);
        assert_eq!(doc.header.workers, 2);
        let keys: Vec<_> = doc
            .ops
            .iter()
            .map(|o| (o.worker, o.run, o.op_index))
            .collect();
        assert_eq!(keys, [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0)]);
        assert_eq!(doc.ops[3].events, ["approx"]);
    }

    #[test]
    fn other_files_are_refused_naming_the_event() {
        let err = parse_trace("{\"schema\":\"qdd-metrics-v1\"}").unwrap_err();
        assert!(err.contains("no \"traceEvents\" array"), "{err}");
        let err = parse_trace(
            "{\"traceEvents\":[{\"ph\":\"M\"},{\"name\":\"sim.op\",\"ts\":1,\"tid\":1}]}",
        )
        .unwrap_err();
        assert_eq!(
            err,
            "traceEvents[1] (sim.op): args: missing numeric \"op_index\""
        );
    }
}
