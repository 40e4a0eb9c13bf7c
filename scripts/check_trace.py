#!/usr/bin/env python3
"""Validate telemetry artifacts produced by `qdd --metrics-out / --trace-out`.

Usage:
    check_trace.py FILE [FILE ...]

Each file's format is detected from its content:

* **metrics snapshot** — a JSON object with ``"schema": "qdd-metrics-v1"``
  (from ``--metrics-out``);
* **Chrome trace** — a JSON object with a ``traceEvents`` array and an
  ``otherData`` header (from ``--trace-out``), loadable in
  ``chrome://tracing`` / Perfetto and the input of ``qdd inspect``.

Exits non-zero on the first malformed file, printing what was wrong and
where. The output formats are a published contract, not a noisy
measurement, so a malformed file is an error. Validated-but-lossy artifacts
(events dropped at the buffer cap) emit a GitHub ``::warning::``
annotation without failing the check.

Files given together are taken to come from one run, which both formats
report from one event stream: their span counts must agree name by name
(files that dropped events are left out of the comparison).
"""

from collections import Counter

import json
import sys

METRICS_SCHEMA = "qdd-metrics-v1"

# Per-op fields of a `sim.op` event's args that must be non-negative
# integers when present (the trace's execution-timeline detail).
OP_FIELDS = ("op_index", "dur_us", "nodes", "mat_nodes", "peak_nodes",
             "nodes_allocated", "nodes_freed", "complex_entries",
             "compute_hits", "compute_misses", "gate_hits", "gate_misses")
HEADER_FIELDS = ("qubits", "ops", "snapshot_stride", "dropped_events")


def fail(path, msg):
    raise SystemExit(f"check_trace: {path}: {msg}")


def warn(path, msg):
    print(f"::warning file={path}::{msg}")


def check_metrics(path, doc):
    """A --metrics-out snapshot: three name->record maps plus a drop count."""
    for key, kind in [("counters", int), ("gauges", (int, float)),
                      ("spans", dict)]:
        section = doc.get(key)
        if not isinstance(section, dict):
            fail(path, f"`{key}` must be an object, got {type(section).__name__}")
        for name, value in section.items():
            if not isinstance(value, kind):
                fail(path, f"{key}[{name!r}]: expected {kind}, got {value!r}")
    if not isinstance(doc.get("dropped_events"), int):
        fail(path, "`dropped_events` must be an integer")
    if doc["dropped_events"] > 0:
        warn(path, f"metrics snapshot dropped {doc['dropped_events']} events "
                   f"at the buffer cap; the trace is incomplete")
    for name, s in doc["spans"].items():
        for field in ("count", "total_ns", "max_ns"):
            if not isinstance(s.get(field), int) or s[field] < 0:
                fail(path, f"span {name!r}: bad `{field}`: {s.get(field)!r}")
        if s["max_ns"] > s["total_ns"]:
            fail(path, f"span {name!r}: max_ns {s['max_ns']} exceeds "
                       f"total_ns {s['total_ns']}")
        if s["count"] == 0 and s["total_ns"] > 0:
            fail(path, f"span {name!r}: time recorded with zero closings")
    spans = Counter({name: s["count"] for name, s in doc["spans"].items()})
    return spans, doc["dropped_events"], (
        f"metrics snapshot: {len(doc['counters'])} counters, "
        f"{len(doc['gauges'])} gauges, {len(doc['spans'])} spans, "
        f"{doc['dropped_events']} dropped")


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_chrome(path, doc):
    """The subset of the trace_event format the converter emits, its
    otherData header, and the per-op args of its sim.op events."""
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(path, "`traceEvents` must be an array")
    header = doc.get("otherData")
    if not isinstance(header, dict) or not isinstance(header.get("circuit"), str):
        fail(path, "`otherData` must be an object with a string `circuit`")
    for field in HEADER_FIELDS:
        if not is_count(header.get(field)):
            fail(path, f"otherData: bad `{field}`: {header.get(field)!r}")
    ops = snapshots = 0
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(path, f"{where}: expected an object")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            fail(path, f"{where}: bad `ph` {ph!r} (converter emits X, i, M)")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            fail(path, f"{where}: missing `name`")
        if ph == "M":
            # Metadata record: names a process or thread, no timestamp.
            if ev["name"] not in ("process_name", "thread_name"):
                fail(path, f"{where}: bad metadata `name` {ev['name']!r}")
            args = ev.get("args")
            if not isinstance(args, dict) or not isinstance(args.get("name"), str):
                fail(path, f"{where}: metadata needs args.name")
            continue
        for field in ("ts", "pid", "tid") + (("dur", "depth") if ph == "X" else ()):
            if not is_count(ev.get(field)):
                fail(path, f"{where}: bad `{field}`: {ev.get(field)!r}")
        if ev["name"] != "sim.op":
            continue
        ops += 1
        args = ev.get("args")
        if not isinstance(args, dict) or "op_index" not in args:
            fail(path, f"{where}: sim.op without args.op_index")
        for field in OP_FIELDS:
            if field in args and not is_count(args[field]):
                fail(path, f"{where}: bad args.{field}: {args[field]!r}")
        if "snapshot" in args:
            snapshots += 1
            graph = args["snapshot"]
            if not isinstance(graph, dict) or not isinstance(graph.get("kind"), str):
                fail(path, f"{where}: args.snapshot is not a graph object with a `kind`")
    dropped = header["dropped_events"]
    if dropped > 0:
        warn(path, f"trace dropped {dropped} events at the buffer cap; "
                   f"the recording is incomplete")
    spans = Counter(ev["name"] for ev in events if ev["ph"] == "X")
    return spans, dropped, (
        f"Chrome trace: {len(events)} trace events, {ops} ops, "
        f"{snapshots} snapshots, {dropped} dropped")


def check_file(path):
    with open(path) as f:
        text = f.read()
    if not text.strip():
        fail(path, "empty file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(path, f"not JSON ({e})")
    if isinstance(doc, dict) and doc.get("schema") == METRICS_SCHEMA:
        return check_metrics(path, doc)
    if isinstance(doc, dict) and "traceEvents" in doc:
        return check_chrome(path, doc)
    if isinstance(doc, dict) and "schema" in doc:
        fail(path, f"unknown schema {doc['schema']!r} (this checker knows "
                   f"{METRICS_SCHEMA!r} and Chrome traces)")
    fail(path, "unrecognized format: neither a metrics snapshot nor a "
               "Chrome trace")


def main():
    if len(sys.argv) < 2:
        raise SystemExit(__doc__.strip().splitlines()[3].strip())
    counts = []  # (path, span counts) of files that dropped nothing
    for path in sys.argv[1:]:
        spans, dropped, summary = check_file(path)
        print(f"{path}: OK ({summary})")
        if dropped == 0:
            counts.append((path, spans))
    for path, spans in counts[1:]:
        first, expected = counts[0]
        if spans != expected:
            names = sorted(n for n in set(spans) | set(expected) if spans[n] != expected[n])
            fail(path, "span counts disagree with " + first + ": " + ", ".join(
                f"{n} {spans[n]} vs {expected[n]}" for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
