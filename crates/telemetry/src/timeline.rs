//! The `qdd-timeline-v1` execution timeline, written from the event
//! stream.
//!
//! The metrics registry answers *how much* a run cost; the timeline answers
//! *when* — which op blew the diagram up, when GC and approximation fired
//! relative to the node curve, how per-level structure evolved. It has no
//! recorder of its own. While the timeline is armed
//! ([`crate::set_timeline`]), every `sim.op` event carries per-op fields:
//! counters as deltas over the op (`nodes_allocated`, `nodes_freed`,
//! compute-table and gate-cache hits and misses; they telescope, so
//! summing one over a run reproduces the package total), absolute gauges
//! at the op's end, the per-level node counts and, every
//! `snapshot_stride`-th op, a structural snapshot of the diagram as a
//! pre-serialized graph JSON document. [`write_jsonl`] turns a drained
//! event stream into the JSONL document `qdd inspect` reads.

use crate::event::{Event, Value};
use crate::json::write_json_string;
use std::fmt::Write as _;
use std::io::{self, Write};

/// Run-level metadata for the JSONL header line.
#[derive(Clone, Debug, Default)]
pub struct TimelineMeta {
    /// Workload / circuit name.
    pub circuit: String,
    /// Number of qubits in the circuit.
    pub qubits: usize,
    /// Number of operations in the circuit program.
    pub ops: usize,
    /// Structural-snapshot stride the run used (0 = off).
    pub snapshot_stride: u32,
}

/// Writes a drained event stream ([`crate::drain_events`]: ordered by lane,
/// then recording order) as `qdd-timeline-v1` JSONL, one line at a time,
/// and returns the number of op records written.
///
/// Line 1 is the header (`dropped_records` is `dropped`, the events the
/// run dropped at the buffer cap):
///
/// ```json
/// {"schema":"qdd-timeline-v1","circuit":"qft16","qubits":16,"ops":152,
///  "snapshot_stride":16,"workers":1,"records":152,"dropped_records":0}
/// ```
///
/// followed by one `"type":"op"` line per `sim.op` event, one
/// `"type":"snapshot"` line per structural snapshot (after the op lines,
/// so a streaming reader has seen the op a snapshot references, via
/// `worker`/`run`/`op_index`, with the graph document inlined under
/// `"graph"`), and one `"type":"span"` line per span event, the flamegraph
/// source. An op's `worker` is its lane and its `seq` its position among
/// the lane's ops; `run` counts the lane's simulation passes, a new pass
/// starting wherever the op index stops increasing. The `core.gc`,
/// `core.pressure_gc`, `degrade.approximate` and `sim.dense_fallback`
/// events a lane recorded since its previous op are folded into the op's
/// `events` as `gc`, `approx` and `dense_fallback` entries.
///
/// # Errors
///
/// Propagates write errors of `out`.
pub fn write_jsonl(
    out: &mut impl Write,
    meta: &TimelineMeta,
    events: &[Event],
    dropped: u64,
) -> io::Result<usize> {
    let ops = || events.iter().filter(|e| e.name == "sim.op");
    let mut workers: Vec<u32> = ops().map(|e| e.lane).collect();
    workers.sort_unstable();
    workers.dedup();
    let records = ops().count();
    let mut line = String::with_capacity(512);
    line.push_str("{\"schema\":\"qdd-timeline-v1\",\"circuit\":");
    write_json_string(&mut line, &meta.circuit);
    let _ = writeln!(
        line,
        ",\"qubits\":{},\"ops\":{},\"snapshot_stride\":{},\"workers\":{},\"records\":{records},\"dropped_records\":{dropped}}}",
        meta.qubits,
        meta.ops,
        meta.snapshot_stride,
        workers.len().max(1),
    );
    out.write_all(line.as_bytes())?;

    // (worker, run, op_index, nodes, graph) of every snapshot, written
    // after the op lines.
    let mut snapshots = Vec::new();
    let mut lane = None;
    let (mut seq, mut run, mut last_index) = (0u64, 0u32, None);
    let mut window = Window::default();
    for ev in events {
        if lane != Some(ev.lane) {
            lane = Some(ev.lane);
            (seq, run, last_index) = (0, 0, None);
            window = Window::default();
        }
        match ev.name {
            "core.gc" => window.gc_runs += 1,
            "core.pressure_gc" => window.pressure_runs += 1,
            "degrade.approximate" => {
                window.approx_rounds += 1;
                window.approx = Some(ev);
            }
            "sim.dense_fallback" => window.dense_fallback = Some(ev),
            "sim.op" => {
                let op_index = num(ev, "op_index");
                if last_index.is_some_and(|last| op_index <= last) {
                    run += 1;
                }
                last_index = Some(op_index);
                line.clear();
                let _ = write!(
                    line,
                    "{{\"type\":\"op\",\"seq\":{seq},\"worker\":{},\"run\":{run},\"op_index\":{op_index},\"op\":",
                    ev.lane
                );
                write_value(&mut line, ev.field("op"), "\"\"");
                line.push_str(",\"qubits\":");
                write_value(&mut line, ev.field("qubits"), "[]");
                let _ = write!(line, ",\"ts_us\":{}", ev.ts_us);
                for (key, field) in [
                    ("dur_us", "dur_us"),
                    ("vec_nodes", "nodes"),
                    ("mat_nodes", "mat_nodes"),
                    ("peak_nodes", "peak_nodes"),
                    ("nodes_allocated", "nodes_allocated"),
                    ("nodes_freed", "nodes_freed"),
                    ("complex_entries", "complex_entries"),
                    ("compute_hits", "compute_hits"),
                    ("compute_misses", "compute_misses"),
                    ("gate_hits", "gate_hits"),
                    ("gate_misses", "gate_misses"),
                ] {
                    let _ = write!(line, ",\"{key}\":{}", num(ev, field));
                }
                if let Some(levels) = ev.field("levels") {
                    line.push_str(",\"levels\":");
                    levels.write_json(&mut line);
                }
                std::mem::take(&mut window).write_events(&mut line);
                line.push_str("}\n");
                out.write_all(line.as_bytes())?;
                if let Some(Value::Str(graph)) = ev.field("snapshot") {
                    snapshots.push((ev.lane, run, op_index, num(ev, "nodes"), graph.as_str()));
                }
                seq += 1;
            }
            _ => {}
        }
    }
    for (worker, run, op_index, nodes, graph) in snapshots {
        writeln!(
            out,
            "{{\"type\":\"snapshot\",\"worker\":{worker},\"run\":{run},\"op_index\":{op_index},\"nodes\":{nodes},\"graph\":{graph}}}"
        )?;
    }
    for ev in events {
        let Some(dur_us) = ev.dur_us else { continue };
        line.clear();
        line.push_str("{\"type\":\"span\",\"name\":");
        write_json_string(&mut line, ev.name);
        let _ = writeln!(
            line,
            ",\"ts_us\":{},\"dur_us\":{dur_us},\"depth\":{},\"worker\":{}}}",
            ev.ts_us, ev.depth, ev.lane
        );
        out.write_all(line.as_bytes())?;
    }
    Ok(records)
}

/// The engine events a lane recorded since its previous op.
#[derive(Default)]
struct Window<'a> {
    gc_runs: u64,
    pressure_runs: u64,
    approx_rounds: u64,
    /// The last approximation round (its account is cumulative).
    approx: Option<&'a Event>,
    dense_fallback: Option<&'a Event>,
}

impl Window<'_> {
    /// Appends the op line's `events` member, if anything fired.
    fn write_events(self, line: &mut String) {
        let mut entries = Vec::new();
        if self.gc_runs > 0 {
            entries.push(format!(
                "{{\"kind\":\"gc\",\"runs\":{},\"pressure_runs\":{}}}",
                self.gc_runs, self.pressure_runs
            ));
        }
        if let Some(ev) = self.approx {
            let mut entry = format!(
                "{{\"kind\":\"approx\",\"rounds\":{},\"nodes_removed\":{},\"fidelity_lower_bound\":",
                self.approx_rounds,
                num(ev, "nodes_removed")
            );
            write_value(&mut entry, ev.field("fidelity_lower_bound"), "null");
            entry.push('}');
            entries.push(entry);
        }
        if let Some(ev) = self.dense_fallback {
            entries.push(format!(
                "{{\"kind\":\"dense_fallback\",\"qubits\":{}}}",
                num(ev, "qubits")
            ));
        }
        if !entries.is_empty() {
            let _ = write!(line, ",\"events\":[{}]", entries.join(","));
        }
    }
}

/// An unsigned field of `ev`, 0 when absent.
fn num(ev: &Event, key: &str) -> u64 {
    match ev.field(key) {
        Some(Value::U64(v)) => *v,
        _ => 0,
    }
}

/// Writes `value` as JSON, or `default` when the field is absent.
fn write_value(line: &mut String, value: Option<&Value>, default: &str) {
    match value {
        Some(v) => v.write_json(line),
        None => line.push_str(default),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            depth: 0,
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

    fn jsonl(events: &[Event], dropped: u64) -> (usize, String) {
        let meta = TimelineMeta {
            circuit: "bell".to_string(),
            qubits: 2,
            ops: 2,
            snapshot_stride: 1,
        };
        let mut out = Vec::new();
        let records = write_jsonl(&mut out, &meta, events, dropped).unwrap();
        (records, String::from_utf8(out).unwrap())
    }

    #[test]
    fn jsonl_has_header_ops_snapshots_and_spans() {
        let events = vec![
            event(0, "core.pressure_gc", None, Vec::new()),
            event(0, "core.gc", Some(2), Vec::new()),
            op(0, 0, vec![("levels", Value::List(vec![1, 2]))]),
            op(
                0,
                1,
                vec![("snapshot", Value::Str("{\"kind\":\"vector\"}".into()))],
            ),
            event(0, "sim.run", Some(11), Vec::new()),
        ];
        let (records, text) = jsonl(&events, 3);
        assert_eq!(records, 2);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "header + 2 ops + 1 snapshot + 2 spans");
        assert!(lines[0].contains("\"schema\":\"qdd-timeline-v1\""));
        assert!(lines[0].contains("\"workers\":1,\"records\":2,\"dropped_records\":3"));
        assert!(lines[1].starts_with("{\"type\":\"op\",\"seq\":0,\"worker\":0,\"run\":0,\"op_index\":0,\"op\":\"h\",\"qubits\":[0],\"ts_us\":5,\"dur_us\":0,\"vec_nodes\":3,"));
        assert!(lines[1].contains("\"compute_hits\":2"));
        assert!(lines[1].contains("\"levels\":[1,2]"));
        assert!(
            lines[1].ends_with(",\"events\":[{\"kind\":\"gc\",\"runs\":1,\"pressure_runs\":1}]}")
        );
        assert!(!lines[2].contains("events"), "the window closed with op 0");
        assert!(
            !lines[2].contains("snapshot"),
            "graphs go on their own line"
        );
        assert_eq!(
            lines[3],
            "{\"type\":\"snapshot\",\"worker\":0,\"run\":0,\"op_index\":1,\"nodes\":3,\"graph\":{\"kind\":\"vector\"}}"
        );
        assert_eq!(lines[4], "{\"type\":\"span\",\"name\":\"core.gc\",\"ts_us\":5,\"dur_us\":2,\"depth\":0,\"worker\":0}");
        assert!(lines[5].contains("\"name\":\"sim.run\""));
        // Every line is a complete JSON object (stream-appendable).
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn lanes_are_workers_and_restarts_are_runs() {
        let round = vec![
            ("nodes_removed", Value::U64(40)),
            ("fidelity_lower_bound", Value::F64(0.5)),
        ];
        let events = vec![
            op(0, 0, Vec::new()),
            op(1, 0, Vec::new()),
            op(1, 1, Vec::new()),
            event(1, "degrade.approximate", None, round.clone()),
            event(1, "degrade.approximate", None, round),
            event(
                1,
                "sim.dense_fallback",
                None,
                vec![("qubits", Value::U64(2))],
            ),
            op(1, 0, Vec::new()),
        ];
        let (records, text) = jsonl(&events, 0);
        assert_eq!(records, 4);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"workers\":2"));
        let key = |l: &str| l.split(",\"op\":").next().unwrap().to_string();
        assert_eq!(
            key(lines[2]),
            "{\"type\":\"op\",\"seq\":0,\"worker\":1,\"run\":0,\"op_index\":0"
        );
        assert_eq!(
            key(lines[3]),
            "{\"type\":\"op\",\"seq\":1,\"worker\":1,\"run\":0,\"op_index\":1"
        );
        assert_eq!(
            key(lines[4]),
            "{\"type\":\"op\",\"seq\":2,\"worker\":1,\"run\":1,\"op_index\":0"
        );
        assert!(lines[4].ends_with(
            ",\"events\":[{\"kind\":\"approx\",\"rounds\":2,\"nodes_removed\":40,\"fidelity_lower_bound\":0.5},\
             {\"kind\":\"dense_fallback\",\"qubits\":2}]}"
        ));
    }
}
