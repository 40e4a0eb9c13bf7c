#!/usr/bin/env python3
"""Validate telemetry artifacts produced by `qdd --metrics-out / --trace-out
/ --record-timeline`.

Usage:
    check_trace.py FILE [FILE ...]

Each file's format is detected from its content:

* **metrics snapshot** — a JSON object with ``"schema": "qdd-metrics-v1"``
  (from ``--metrics-out``);
* **Chrome trace** — a JSON object with a ``traceEvents`` array (from
  ``--trace-out``), loadable in ``chrome://tracing`` / Perfetto;
* **execution timeline** — JSONL whose first line carries
  ``"schema": "qdd-timeline-v1"`` (from ``--record-timeline``), the input
  of ``qdd inspect``.

Exits non-zero on the first malformed file, printing what was wrong and
where. The output formats are a published contract, not a noisy
measurement, so a malformed file is an error. Validated-but-lossy artifacts
(events or records dropped at a recording cap) emit a GitHub
``::warning::`` annotation without failing the check.

Files given together are taken to come from one run, which all three
formats report from one event stream: their span counts must agree name by
name (unless events were dropped at the cap).
"""

from collections import Counter

import json
import sys

METRICS_SCHEMA = "qdd-metrics-v1"
TIMELINE_SCHEMA = "qdd-timeline-v1"


def fail(path, msg):
    raise SystemExit(f"check_trace: {path}: {msg}")


def warn(path, msg):
    print(f"::warning file={path}::{msg}")


def check_metrics(path, doc):
    """A --metrics-out snapshot: four name->record maps plus a drop count."""
    for key, kind in [("counters", int), ("gauges", (int, float)),
                      ("histograms", dict), ("spans", dict)]:
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
    for name, h in doc["histograms"].items():
        bucket_total = sum(c for _, _, c in h.get("buckets", []))
        if bucket_total != h.get("count"):
            fail(path, f"histogram {name!r}: buckets sum to {bucket_total}, "
                       f"count says {h.get('count')}")
        for lo, hi, c in h["buckets"]:
            if not (0 <= lo <= hi and c > 0):
                fail(path, f"histogram {name!r}: bad bucket [{lo},{hi},{c}]")
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


def check_chrome(path, doc):
    """The subset of the trace_event format the converter emits."""
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(path, "`traceEvents` must be an array")
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
        for field in ("ts", "pid", "tid") + (("dur",) if ph == "X" else ()):
            if not isinstance(ev.get(field), (int, float)) or ev[field] < 0:
                fail(path, f"{where}: bad `{field}`: {ev.get(field)!r}")
    spans = Counter(ev["name"] for ev in events if ev["ph"] == "X")
    return spans, 0, f"Chrome trace: {len(events)} trace events"


# Per-op delta fields that must never go negative in a timeline record.
TIMELINE_DELTAS = ("dur_us", "vec_nodes", "mat_nodes", "peak_nodes",
                   "nodes_allocated", "nodes_freed", "complex_entries",
                   "compute_hits", "compute_misses", "gate_hits",
                   "gate_misses")


def check_timeline(path, text):
    """A --record-timeline stream: header, op records, snapshots, spans."""
    lines = [l for l in text.splitlines() if l.strip()]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        fail(path, f"line 1: not JSON ({e})")
    for field in ("circuit", "qubits", "ops", "snapshot_stride", "workers",
                  "records", "dropped_records"):
        if field not in header:
            fail(path, f"header: missing `{field}`")
    ops = 0            # op lines seen
    spans = Counter()  # span name -> lines
    snapshots = 0
    last_index = {}    # (worker, run) -> last op_index
    seen_ops = set()   # (worker, run, op_index) valid snapshot targets
    for i, line in enumerate(lines[1:], 2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(path, f"line {i}: not JSON ({e})")
        kind = rec.get("type")
        if kind == "op":
            ops += 1
            for field in TIMELINE_DELTAS:
                v = rec.get(field, 0)
                if not isinstance(v, int) or v < 0:
                    fail(path, f"line {i}: bad `{field}`: {v!r}")
            key = (rec.get("worker"), rec.get("run"))
            idx = rec.get("op_index")
            if not isinstance(idx, int) or idx < 0:
                fail(path, f"line {i}: bad `op_index`: {idx!r}")
            if key in last_index and idx <= last_index[key]:
                fail(path, f"line {i}: op_index {idx} not monotonic within "
                           f"worker/run {key} (previous {last_index[key]})")
            last_index[key] = idx
            seen_ops.add((key[0], key[1], idx))
            for ev in rec.get("events", []):
                if not isinstance(ev.get("kind"), str) or not ev["kind"]:
                    fail(path, f"line {i}: event without `kind`")
        elif kind == "snapshot":
            snapshots += 1
            ref = (rec.get("worker"), rec.get("run"), rec.get("op_index"))
            if ref not in seen_ops:
                fail(path, f"line {i}: snapshot references unknown op "
                           f"worker={ref[0]} run={ref[1]} op_index={ref[2]}")
            if not isinstance(rec.get("graph"), dict):
                fail(path, f"line {i}: snapshot without an inline `graph`")
        elif kind == "span":
            spans[rec.get("name")] += 1
            for field in ("ts_us", "dur_us"):
                v = rec.get(field)
                if not isinstance(v, int) or v < 0:
                    fail(path, f"line {i}: bad `{field}`: {v!r}")
        else:
            fail(path, f"line {i}: unknown record type {kind!r}")
    if ops != header["records"]:
        fail(path, f"header says {header['records']} records, "
                   f"stream has {ops}")
    if header["dropped_records"] > 0:
        warn(path, f"timeline dropped {header['dropped_records']} records at "
                   f"the recording cap; per-op attribution is incomplete")
    return spans, header["dropped_records"], (
        f"timeline: {ops} ops over {len(last_index)} worker/run passes, "
        f"{snapshots} snapshots, {sum(spans.values())} spans, "
        f"{header['dropped_records']} dropped")


def check_file(path):
    with open(path) as f:
        text = f.read()
    if not text.strip():
        fail(path, "empty file")
    first = text.strip().splitlines()[0]
    try:
        head = json.loads(first)
    except json.JSONDecodeError:
        head = None
    if isinstance(head, dict) and head.get("schema") == TIMELINE_SCHEMA:
        return check_timeline(path, text)
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
                   f"{METRICS_SCHEMA!r} and {TIMELINE_SCHEMA!r})")
    fail(path, "unrecognized format: neither a metrics snapshot, a Chrome "
               "trace, nor an execution timeline")


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
