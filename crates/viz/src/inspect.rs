//! Parsing of `qdd-timeline-v1` JSONL streams back into an inspectable
//! model — the read side of the execution timeline, feeding the HTML
//! inspector ([`crate::html::timeline_report`]). Lines are read with the
//! workspace's JSON parser, [`qdd_telemetry::json::parse_json`].

use qdd_complex::Complex;
use qdd_core::graph::{DdGraph, GraphEdge, GraphNode, NodeKind};
use qdd_telemetry::json::{parse_json, JsonValue};

/// The header line of a timeline stream.
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
    /// Number of workers that contributed records.
    pub workers: u32,
    /// Number of op records in the stream.
    pub records: usize,
    /// Records dropped at the recording cap.
    pub dropped_records: u64,
}

/// One `"type":"op"` line.
#[derive(Clone, Debug, Default)]
pub struct OpLine {
    /// Worker id (0 = coordinator).
    pub worker: u32,
    /// Run (restart) index within the worker.
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
    /// Folded-in engine events: `(kind, whole event object)`.
    pub events: Vec<(String, JsonValue)>,
}

/// One `"type":"snapshot"` line with its reconstructed diagram.
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

/// One `"type":"span"` line (the flamegraph source).
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

/// A fully parsed timeline stream.
#[derive(Clone, Debug, Default)]
pub struct TimelineDoc {
    /// The header line.
    pub header: TimelineHeader,
    /// Op records in stream (merged, deterministic) order.
    pub ops: Vec<OpLine>,
    /// Structural snapshots in stream order.
    pub snapshots: Vec<SnapshotLine>,
    /// Telemetry spans in completion order.
    pub spans: Vec<SpanLine>,
}

fn req_u64(v: &JsonValue, key: &str, line: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("line {line}: missing numeric \"{key}\""))
}

fn opt_u64(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// Parses a `qdd-timeline-v1` JSONL stream.
///
/// # Errors
///
/// A message naming the first offending line: bad JSON, a wrong schema
/// tag, an unknown line type, or a snapshot whose graph document does not
/// reconstruct.
pub fn parse_timeline(text: &str) -> Result<TimelineDoc, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (_, header_line) = lines.next().ok_or("empty timeline stream")?;
    let header_json =
        parse_json(header_line).map_err(|e| format!("header line: {e}"))?;
    if header_json.get("schema").and_then(JsonValue::as_str) != Some("qdd-timeline-v1") {
        return Err("not a qdd-timeline-v1 stream (bad or missing \"schema\")".to_string());
    }
    let mut doc = TimelineDoc {
        header: TimelineHeader {
            circuit: header_json
                .get("circuit")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            qubits: opt_u64(&header_json, "qubits") as usize,
            ops: opt_u64(&header_json, "ops") as usize,
            snapshot_stride: opt_u64(&header_json, "snapshot_stride") as u32,
            workers: opt_u64(&header_json, "workers") as u32,
            records: opt_u64(&header_json, "records") as usize,
            dropped_records: opt_u64(&header_json, "dropped_records"),
        },
        ..TimelineDoc::default()
    };
    for (i, line) in lines {
        let n = i + 1; // 1-based for messages
        let v = parse_json(line).map_err(|e| format!("line {n}: {e}"))?;
        match v.get("type").and_then(JsonValue::as_str) {
            Some("op") => {
                let events = v
                    .get("events")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .map(|ev| {
                        (
                            ev.get("kind")
                                .and_then(JsonValue::as_str)
                                .unwrap_or("")
                                .to_string(),
                            ev.clone(),
                        )
                    })
                    .collect();
                doc.ops.push(OpLine {
                    worker: req_u64(&v, "worker", n)? as u32,
                    run: opt_u64(&v, "run") as u32,
                    op_index: req_u64(&v, "op_index", n)?,
                    op: v
                        .get("op")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                    qubits: v
                        .get("qubits")
                        .and_then(JsonValue::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|q| q.as_u64())
                        .map(|q| q as u16)
                        .collect(),
                    ts_us: req_u64(&v, "ts_us", n)?,
                    dur_us: opt_u64(&v, "dur_us"),
                    vec_nodes: req_u64(&v, "vec_nodes", n)?,
                    mat_nodes: opt_u64(&v, "mat_nodes"),
                    peak_nodes: opt_u64(&v, "peak_nodes"),
                    nodes_allocated: opt_u64(&v, "nodes_allocated"),
                    nodes_freed: opt_u64(&v, "nodes_freed"),
                    complex_entries: opt_u64(&v, "complex_entries"),
                    compute_hits: opt_u64(&v, "compute_hits"),
                    compute_misses: opt_u64(&v, "compute_misses"),
                    gate_hits: opt_u64(&v, "gate_hits"),
                    gate_misses: opt_u64(&v, "gate_misses"),
                    levels: v
                        .get("levels")
                        .and_then(JsonValue::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|l| l.as_u64())
                        .map(|l| l as u32)
                        .collect(),
                    events,
                });
            }
            Some("snapshot") => {
                let graph_json = v
                    .get("graph")
                    .ok_or_else(|| format!("line {n}: snapshot without \"graph\""))?;
                doc.snapshots.push(SnapshotLine {
                    worker: opt_u64(&v, "worker") as u32,
                    run: opt_u64(&v, "run") as u32,
                    op_index: req_u64(&v, "op_index", n)?,
                    nodes: opt_u64(&v, "nodes"),
                    graph: graph_from_json(graph_json)
                        .map_err(|e| format!("line {n}: {e}"))?,
                });
            }
            Some("span") => {
                doc.spans.push(SpanLine {
                    worker: opt_u64(&v, "worker") as u32,
                    name: v
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                    ts_us: req_u64(&v, "ts_us", n)?,
                    dur_us: req_u64(&v, "dur_us", n)?,
                    depth: opt_u64(&v, "depth") as u16,
                });
            }
            other => {
                return Err(format!("line {n}: unknown line type {other:?}"));
            }
        }
    }
    Ok(doc)
}

/// Reconstructs a [`DdGraph`] from the JSON document `DdGraph::to_json`
/// produces — the inverse used to re-render per-stride snapshots without a
/// live package.
///
/// # Errors
///
/// Describes the first missing or mistyped member.
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
    let root_weight = complex(v.get("rootWeight"), "rootWeight")?;
    let root = match v.get("root") {
        Some(JsonValue::Null) | None => None,
        Some(k) => Some(
            k.as_u64()
                .ok_or_else(|| "graph: non-numeric root".to_string())? as u32,
        ),
    };
    let mut nodes = Vec::new();
    for n in v.get("nodes").and_then(JsonValue::as_array).unwrap_or(&[]) {
        nodes.push(GraphNode {
            key: n
                .get("key")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| "graph: node without key".to_string())? as u32,
            var: n.get("var").and_then(JsonValue::as_u64).unwrap_or(0) as u8,
            zero_mask: n.get("zeroMask").and_then(JsonValue::as_u64).unwrap_or(0) as u8,
        });
    }
    let mut edges = Vec::new();
    for e in v.get("edges").and_then(JsonValue::as_array).unwrap_or(&[]) {
        let to = match e.get("to") {
            Some(JsonValue::Null) | None => None,
            Some(k) => Some(
                k.as_u64()
                    .ok_or_else(|| "graph: non-numeric edge target".to_string())?
                    as u32,
            ),
        };
        edges.push(GraphEdge {
            from: e
                .get("from")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| "graph: edge without from".to_string())? as u32,
            slot: e.get("slot").and_then(JsonValue::as_u64).unwrap_or(0) as u8,
            to,
            weight: complex(e.get("weight"), "edge weight")?,
            skip: e.get("skip").and_then(JsonValue::as_u64).unwrap_or(0) as u8,
        });
    }
    let num_levels = v.get("numLevels").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
    Ok(DdGraph {
        kind,
        root_weight,
        root,
        nodes,
        edges,
        num_levels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_core::{gates, Control, DdPackage};

    #[test]
    fn graph_json_round_trips_through_reconstruction() {
        let mut dd = DdPackage::new();
        let z = dd.zero_state(2).unwrap();
        let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
        let bell = dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap();
        let original = DdGraph::from_vector(&dd, bell);
        let rebuilt = graph_from_json(&parse_json(&original.to_json()).unwrap()).unwrap();
        assert_eq!(original, rebuilt);
    }

    #[test]
    fn timeline_stream_parses_ops_snapshots_and_spans() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(1).unwrap();
        let graph = DdGraph::from_vector(&dd, s).to_json();
        let text = format!(
            "{{\"schema\":\"qdd-timeline-v1\",\"circuit\":\"bell\",\"qubits\":2,\"ops\":2,\
             \"snapshot_stride\":1,\"workers\":1,\"records\":2,\"dropped_records\":0}}\n\
             {{\"type\":\"op\",\"seq\":0,\"worker\":0,\"run\":0,\"op_index\":0,\"op\":\"h\",\
             \"qubits\":[1],\"ts_us\":1,\"dur_us\":2,\"vec_nodes\":2,\"mat_nodes\":1,\
             \"peak_nodes\":3,\"nodes_allocated\":2,\"nodes_freed\":0,\"complex_entries\":4,\
             \"compute_hits\":1,\"compute_misses\":2,\"gate_hits\":0,\"gate_misses\":1,\
             \"levels\":[1,1],\"events\":[{{\"kind\":\"gc\",\"runs\":1}}]}}\n\
             {{\"type\":\"snapshot\",\"worker\":0,\"run\":0,\"op_index\":0,\"nodes\":2,\
             \"graph\":{graph}}}\n\
             {{\"type\":\"span\",\"name\":\"sim.run\",\"ts_us\":0,\"dur_us\":9,\"depth\":0}}\n"
        );
        let doc = parse_timeline(&text).unwrap();
        assert_eq!(doc.header.circuit, "bell");
        assert_eq!(doc.header.snapshot_stride, 1);
        assert_eq!(doc.ops.len(), 1);
        assert_eq!(doc.ops[0].op, "h");
        assert_eq!(doc.ops[0].levels, vec![1, 1]);
        assert_eq!(doc.ops[0].events[0].0, "gc");
        assert_eq!(doc.snapshots.len(), 1);
        assert_eq!(doc.snapshots[0].graph.node_count(), 1);
        assert_eq!(doc.spans.len(), 1);
        assert_eq!(doc.spans[0].name, "sim.run");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let err = parse_timeline("{\"schema\":\"qdd-metrics-v1\"}\n").unwrap_err();
        assert!(err.contains("qdd-timeline-v1"), "{err}");
    }
}
