//! Time-resolved execution timeline: a bounded, thread-mergeable ring of
//! per-operation records.
//!
//! The metrics registry answers *how much* a run cost; the timeline answers
//! *when* — which op blew the diagram up, when GC and approximation fired
//! relative to the node curve, how per-level structure evolved. Each applied
//! operation contributes one [`TimelineRecord`] carrying delta-attributed
//! counters (nodes allocated/freed, compute/gate-cache hits and misses
//! between the op's start and end) plus absolute gauges (live nodes,
//! complex-table size), optional per-level histograms, folded-in engine
//! events (GC, approximation rounds, dense fallback), and — every
//! `snapshot_stride` ops — a full structural snapshot of the diagram as a
//! pre-serialized graph JSON document.
//!
//! # Discipline
//!
//! Recording follows the same contract as the metrics layer: off by
//! default, toggled per thread, and every probe pays exactly one
//! thread-local boolean branch when disabled ([`enabled`]). The buffer is
//! bounded at [`MAX_TIMELINE_RECORDS`]; past the cap, records are counted
//! as dropped (drop-newest) instead of stored.
//!
//! # Multi-threaded runs
//!
//! Worker threads record into thread-local buffers and [`publish`] them
//! before exiting; the coordinator calls [`merged_drain`], which combines
//! published and local records sorted by `(worker, run, seq)`. Worker ids
//! are assigned by the caller (the shot engine numbers workers by their
//! shot-range position), so the merged order is deterministic regardless
//! of thread scheduling.

use crate::event::Value;
use crate::json::write_json_string;
use crate::Event;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Hard cap on buffered timeline records per thread; beyond it records are
/// counted as dropped instead of stored, bounding memory on very long runs.
pub const MAX_TIMELINE_RECORDS: usize = 1 << 16;

/// An engine event (GC run, approximation round, dense fallback) folded
/// into the op record it occurred under, with its original typed fields.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineEvent {
    /// Event kind, e.g. `"gc"`, `"approx"`, `"dense_fallback"`.
    pub kind: &'static str,
    /// Typed payload fields, in recording order.
    pub fields: Vec<(&'static str, Value)>,
}

/// One applied operation's worth of timeline data.
///
/// `seq`, `worker`, and `ts_us` are stamped by [`record`]; everything else
/// is filled by the recorder at the op boundary. Counter fields are
/// *deltas* over the op window (they telescope: summing a field across all
/// records of a run reproduces the run-level total), gauge fields are
/// absolute readings at the op's end.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineRecord {
    /// Per-thread monotonic sequence number (stamped by [`record`]).
    pub seq: u64,
    /// Worker id (0 = coordinator; shot workers are numbered from 1 in
    /// shot-range order). Stamped by [`record`] from [`set_worker`].
    pub worker: u32,
    /// Run (restart) index within the worker — distinguishes replays of
    /// the same circuit in shot loops.
    pub run: u32,
    /// Index of the op in the circuit's program order.
    pub op_index: u64,
    /// Op kind (gate name, `"measure"`, `"reset"`, `"barrier"`, …).
    pub op: &'static str,
    /// Qubits the op touches (target first, then controls).
    pub qubits: Vec<u16>,
    /// Microseconds since this thread's timeline epoch (stamped by
    /// [`record`]; monotonic per thread).
    pub ts_us: u64,
    /// Wall time the op took, in microseconds.
    pub dur_us: u64,
    /// Live vector nodes reachable from the state after the op.
    pub vec_nodes: u64,
    /// Live matrix nodes (absolute estimate) after the op.
    pub mat_nodes: u64,
    /// Package-wide live-node high-water mark after the op.
    pub peak_nodes: u64,
    /// Nodes created during the op (delta of the birth counter).
    pub nodes_allocated: u64,
    /// Nodes reclaimed during the op (births minus live-estimate growth).
    pub nodes_freed: u64,
    /// Distinct interned complex values after the op.
    pub complex_entries: u64,
    /// Compute-table hits attributed to this op (delta).
    pub compute_hits: u64,
    /// Compute-table misses attributed to this op (delta).
    pub compute_misses: u64,
    /// Gate-DD-cache hits attributed to this op (delta).
    pub gate_hits: u64,
    /// Gate-DD-cache misses attributed to this op (delta).
    pub gate_misses: u64,
    /// Per-level node counts after the op (`levels[i]` = nodes labelled
    /// qubit `i`); empty when level profiling is off.
    pub levels: Vec<u32>,
    /// Engine events that fired during the op window.
    pub events: Vec<TimelineEvent>,
    /// Structural snapshot: a pre-serialized graph JSON document
    /// (`DdGraph::to_json`), captured every `snapshot_stride` ops.
    pub snapshot: Option<String>,
}

/// Per-thread timeline state.
struct TimelineState {
    epoch: Instant,
    records: Vec<TimelineRecord>,
    dropped: u64,
    seq: u64,
    worker: u32,
    snapshot_stride: u32,
    runs: u32,
}

impl TimelineState {
    fn new() -> Self {
        TimelineState {
            epoch: Instant::now(),
            records: Vec::new(),
            dropped: 0,
            seq: 0,
            worker: 0,
            snapshot_stride: 0,
            runs: 0,
        }
    }
}

thread_local! {
    /// The hot-path toggle, split from the state so the disabled check is a
    /// plain `Cell` read with no `RefCell` borrow.
    static TL_ENABLED: Cell<bool> = const { Cell::new(false) };
    static TL_STATE: RefCell<TimelineState> = RefCell::new(TimelineState::new());
}

/// Records published by finished worker threads, with their dropped counts.
/// Off the hot path: touched only by [`publish`] and [`merged_drain`].
static PUBLISHED_RECORDS: Mutex<(Vec<TimelineRecord>, u64)> = Mutex::new((Vec::new(), 0));

/// Turns timeline recording on or off for the current thread. Enabling does
/// not clear previously recorded data; call [`reset`] for a fresh start.
pub fn set_enabled(on: bool) {
    TL_ENABLED.with(|e| e.set(on));
}

/// Whether timeline recording is on for the current thread — the single
/// branch every recording point pays when the timeline is off.
#[inline]
pub fn enabled() -> bool {
    TL_ENABLED.with(|e| e.get())
}

/// Clears all buffered records, restarts the timeline clock, and resets the
/// sequence counter, worker id, and snapshot stride. The enabled flag is
/// untouched.
pub fn reset() {
    TL_STATE.with(|s| *s.borrow_mut() = TimelineState::new());
}

/// Sets the worker id stamped onto subsequent records (0 = coordinator).
pub fn set_worker(worker: u32) {
    TL_STATE.with(|s| s.borrow_mut().worker = worker);
}

/// Sets the structural-snapshot stride: every `stride`-th op (counting from
/// the first) captures a full diagram snapshot. 0 disables snapshots.
pub fn set_snapshot_stride(stride: u32) {
    TL_STATE.with(|s| s.borrow_mut().snapshot_stride = stride);
}

/// Allocates the next run id on this thread. Recorders stamp one run id
/// per simulation pass so op indices stay monotonic within each
/// `(worker, run)` pair even when a thread executes several passes (the
/// initial run plus the shot engine, or per-shot re-execution). Returns 0
/// without consuming an id when recording is disabled.
pub fn next_run() -> u32 {
    if !enabled() {
        return 0;
    }
    TL_STATE.with(|s| {
        let mut s = s.borrow_mut();
        let run = s.runs;
        s.runs += 1;
        run
    })
}

/// The current thread's snapshot stride (0 = snapshots off).
pub fn snapshot_stride() -> u32 {
    if !enabled() {
        return 0;
    }
    TL_STATE.with(|s| s.borrow().snapshot_stride)
}

/// Microseconds since this thread's timeline epoch (monotonic per thread).
pub fn now_us() -> u64 {
    TL_STATE.with(|s| s.borrow().epoch.elapsed().as_micros() as u64)
}

/// Buffers one record, stamping its `seq`, `worker`, and `ts_us`. No-op
/// (one branch) when recording is disabled; counted as dropped past
/// [`MAX_TIMELINE_RECORDS`].
pub fn record(mut rec: TimelineRecord) {
    if !enabled() {
        return;
    }
    TL_STATE.with(|s| {
        let mut s = s.borrow_mut();
        rec.seq = s.seq;
        s.seq += 1;
        rec.worker = s.worker;
        rec.ts_us = s.epoch.elapsed().as_micros() as u64;
        if s.records.len() < MAX_TIMELINE_RECORDS {
            s.records.push(rec);
        } else {
            s.dropped += 1;
        }
    });
}

/// Number of records dropped on this thread after the buffer cap was hit.
pub fn dropped() -> u64 {
    TL_STATE.with(|s| s.borrow().dropped)
}

/// Removes and returns this thread's buffered records plus its dropped
/// count. The sequence counter keeps running, so later records still sort
/// after drained ones.
pub fn drain() -> (Vec<TimelineRecord>, u64) {
    TL_STATE.with(|s| {
        let mut s = s.borrow_mut();
        let recs = std::mem::take(&mut s.records);
        let dropped = std::mem::replace(&mut s.dropped, 0);
        (recs, dropped)
    })
}

/// Publishes this thread's buffered records into the process-wide registry
/// and clears them locally, so repeated publishing never double-counts.
/// Worker threads call this before exiting; the coordinator then sees their
/// records via [`merged_drain`].
pub fn publish() {
    let (recs, dropped) = drain();
    if recs.is_empty() && dropped == 0 {
        return;
    }
    let mut published = PUBLISHED_RECORDS.lock().unwrap();
    published.0.extend(recs);
    published.1 += dropped;
}

/// Drains everything published by workers plus the current thread's own
/// buffer, sorted by `(worker, run, seq)` — deterministic for any thread
/// schedule, because worker ids are assigned by shot-range position and
/// `seq` is per-thread monotonic. Returns the records and the total
/// dropped count.
pub fn merged_drain() -> (Vec<TimelineRecord>, u64) {
    let (mut recs, mut dropped) = {
        let mut published = PUBLISHED_RECORDS.lock().unwrap();
        (std::mem::take(&mut published.0), std::mem::replace(&mut published.1, 0))
    };
    let (local, local_dropped) = drain();
    recs.extend(local);
    dropped += local_dropped;
    recs.sort_by_key(|r| (r.worker, r.run, r.seq));
    (recs, dropped)
}

/// Clears the process-wide published registry. Thread-local buffers are
/// untouched; pair with [`reset`] for a fully fresh start.
pub fn reset_published() {
    let mut published = PUBLISHED_RECORDS.lock().unwrap();
    published.0.clear();
    published.1 = 0;
}

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
    /// Number of distinct workers that contributed records.
    pub workers: u32,
}

/// Serializes a merged timeline to the `qdd-timeline-v1` JSONL format.
///
/// Line 1 is the header:
///
/// ```json
/// {"schema":"qdd-timeline-v1","circuit":"qft16","qubits":16,"ops":152,
///  "snapshot_stride":16,"workers":1,"records":152,"dropped_records":0}
/// ```
///
/// followed by one line per record (`"type":"op"`), one line per
/// structural snapshot (`"type":"snapshot"`, referencing the op it was
/// taken after via `worker`/`run`/`op_index`, with the graph document
/// inlined under `"graph"`), and — when `spans` is non-empty — one line
/// per completed telemetry span (`"type":"span"`), the flamegraph source.
/// The stream is append-friendly: each line is a complete JSON document,
/// so `qdd serve` can tail it.
pub fn to_jsonl(meta: &TimelineMeta, records: &[TimelineRecord], dropped: u64, spans: &[Event]) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"qdd-timeline-v1\",\"circuit\":");
    write_json_string(&mut out, &meta.circuit);
    let _ = writeln!(
        out,
        ",\"qubits\":{},\"ops\":{},\"snapshot_stride\":{},\"workers\":{},\"records\":{},\"dropped_records\":{}}}",
        meta.qubits, meta.ops, meta.snapshot_stride, meta.workers, records.len(), dropped
    );
    for r in records {
        let _ = write!(
            out,
            "{{\"type\":\"op\",\"seq\":{},\"worker\":{},\"run\":{},\"op_index\":{},\"op\":",
            r.seq, r.worker, r.run, r.op_index
        );
        write_json_string(&mut out, r.op);
        out.push_str(",\"qubits\":[");
        for (i, q) in r.qubits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{q}");
        }
        let _ = write!(
            out,
            "],\"ts_us\":{},\"dur_us\":{},\"vec_nodes\":{},\"mat_nodes\":{},\"peak_nodes\":{},\
             \"nodes_allocated\":{},\"nodes_freed\":{},\"complex_entries\":{},\
             \"compute_hits\":{},\"compute_misses\":{},\"gate_hits\":{},\"gate_misses\":{}",
            r.ts_us,
            r.dur_us,
            r.vec_nodes,
            r.mat_nodes,
            r.peak_nodes,
            r.nodes_allocated,
            r.nodes_freed,
            r.complex_entries,
            r.compute_hits,
            r.compute_misses,
            r.gate_hits,
            r.gate_misses
        );
        if !r.levels.is_empty() {
            out.push_str(",\"levels\":[");
            for (i, n) in r.levels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{n}");
            }
            out.push(']');
        }
        if !r.events.is_empty() {
            out.push_str(",\"events\":[");
            for (i, ev) in r.events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"kind\":");
                write_json_string(&mut out, ev.kind);
                for (key, value) in &ev.fields {
                    out.push(',');
                    write_json_string(&mut out, key);
                    out.push(':');
                    value.write_json(&mut out);
                }
                out.push('}');
            }
            out.push(']');
        }
        out.push_str("}\n");
    }
    // Snapshot lines follow the op lines so a streaming validator has seen
    // the op a snapshot references by the time it reads it.
    for r in records {
        if let Some(graph) = &r.snapshot {
            let _ = writeln!(
                out,
                "{{\"type\":\"snapshot\",\"worker\":{},\"run\":{},\"op_index\":{},\"nodes\":{},\"graph\":{graph}}}",
                r.worker, r.run, r.op_index, r.vec_nodes
            );
        }
    }
    for ev in spans {
        let Some(dur_us) = ev.dur_us else { continue };
        let _ = write!(out, "{{\"type\":\"span\",\"name\":");
        write_json_string(&mut out, ev.name);
        let _ = writeln!(out, ",\"ts_us\":{},\"dur_us\":{dur_us},\"depth\":{}}}", ev.ts_us, ev.depth);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op_index: u64, op: &'static str) -> TimelineRecord {
        TimelineRecord {
            op_index,
            op,
            qubits: vec![0],
            vec_nodes: 3,
            ..TimelineRecord::default()
        }
    }

    #[test]
    fn disabled_records_nothing() {
        set_enabled(false);
        reset();
        record(rec(0, "h"));
        assert_eq!(drain().0.len(), 0);
        assert_eq!(dropped(), 0);
    }

    #[test]
    fn records_are_stamped_in_sequence() {
        set_enabled(true);
        reset();
        set_worker(2);
        record(rec(0, "h"));
        record(rec(1, "cx"));
        let (recs, dropped) = drain();
        set_enabled(false);
        assert_eq!(dropped, 0);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
        assert!(recs[1].ts_us >= recs[0].ts_us, "timestamps are monotonic");
        assert_eq!(recs[0].worker, 2);
    }

    #[test]
    fn buffer_caps_and_counts_drops() {
        set_enabled(true);
        reset();
        TL_STATE.with(|s| {
            let mut s = s.borrow_mut();
            for _ in 0..MAX_TIMELINE_RECORDS {
                s.records.push(TimelineRecord::default());
            }
        });
        record(rec(0, "h"));
        assert_eq!(dropped(), 1);
        assert_eq!(drain().0.len(), MAX_TIMELINE_RECORDS);
        set_enabled(false);
    }

    #[test]
    fn publish_and_merged_drain_order_by_worker_then_seq() {
        set_enabled(true);
        reset();
        reset_published();
        let handles: Vec<_> = (1..=2u32)
            .map(|w| {
                std::thread::spawn(move || {
                    set_enabled(true);
                    set_worker(w);
                    record(rec(0, "h"));
                    record(rec(1, "cx"));
                    publish();
                    assert_eq!(drain().0.len(), 0, "publish drained the buffer");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        record(rec(0, "measure")); // coordinator's own record (worker 0)
        let (recs, dropped) = merged_drain();
        set_enabled(false);
        assert_eq!(dropped, 0);
        let order: Vec<(u32, u64)> = recs.iter().map(|r| (r.worker, r.seq)).collect();
        assert_eq!(order, vec![(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn jsonl_has_header_ops_snapshots_and_spans() {
        let mut a = rec(0, "h");
        a.levels = vec![1, 2];
        a.events.push(TimelineEvent {
            kind: "gc",
            fields: vec![("nodes_freed", Value::U64(7))],
        });
        let mut b = rec(1, "cx");
        b.snapshot = Some("{\"kind\":\"vector\"}".to_string());
        let spans = vec![Event {
            ts_us: 5,
            dur_us: Some(11),
            name: "sim.run",
            depth: 0,
            fields: Vec::new(),
        }];
        let meta = TimelineMeta {
            circuit: "bell".to_string(),
            qubits: 2,
            ops: 2,
            snapshot_stride: 1,
            workers: 1,
        };
        let text = to_jsonl(&meta, &[a, b], 3, &spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "header + 2 ops + 1 snapshot + 1 span");
        assert!(lines[0].contains("\"schema\":\"qdd-timeline-v1\""));
        assert!(lines[0].contains("\"dropped_records\":3"));
        assert!(lines[1].contains("\"type\":\"op\""));
        assert!(lines[1].contains("\"levels\":[1,2]"));
        assert!(lines[1].contains("\"events\":[{\"kind\":\"gc\",\"nodes_freed\":7}]"));
        assert!(lines[3].contains("\"type\":\"snapshot\""));
        assert!(lines[3].contains("\"graph\":{\"kind\":\"vector\"}"));
        assert!(lines[4].contains("\"type\":\"span\""));
        // Every line is a complete JSON object (stream-appendable).
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }
}
