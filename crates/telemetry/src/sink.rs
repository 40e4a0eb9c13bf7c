//! Output sinks: JSONL event streams, Chrome `trace_event` JSON, and the
//! human-readable profile table.

use crate::event::Event;
use crate::json::write_json_string;
use crate::snapshot::Snapshot;
use std::fmt::Write as _;

/// Renders events as JSON Lines: one self-contained JSON object per line,
/// suitable for `jq`, log shippers, or incremental parsing.
///
/// Line layout (checked by `scripts/check_trace.py`):
///
/// ```json
/// {"ts_us":12,"kind":"span","name":"core.mat_vec","depth":1,"dur_us":3,"args":{}}
/// {"ts_us":15,"kind":"instant","name":"sim.op","depth":0,"args":{"op_index":2}}
/// ```
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        out.push_str("{\"ts_us\":");
        let _ = write!(out, "{}", ev.ts_us);
        out.push_str(",\"kind\":");
        out.push_str(if ev.dur_us.is_some() {
            "\"span\""
        } else {
            "\"instant\""
        });
        out.push_str(",\"name\":");
        write_json_string(&mut out, ev.name);
        let _ = write!(out, ",\"depth\":{}", ev.depth);
        if let Some(dur) = ev.dur_us {
            let _ = write!(out, ",\"dur_us\":{dur}");
        }
        out.push_str(",\"args\":");
        write_args(&mut out, ev);
        out.push_str("}\n");
    }
    out
}

/// Renders events in the Chrome `trace_event` format (the
/// `{"traceEvents": […]}` object form), loadable in `chrome://tracing`,
/// Perfetto, or Speedscope for flamegraph-style inspection.
///
/// Spans become complete (`"ph":"X"`) events; instants become
/// thread-scoped instant (`"ph":"i"`) events.
pub fn events_to_chrome_trace(events: &[Event]) -> String {
    events_to_chrome_trace_named(events, None, &[])
}

/// [`events_to_chrome_trace`] plus Chrome metadata (`"ph":"M"`) records:
/// a `process_name` record naming the workload and `thread_name` records
/// for the coordinator (tid 1) and each registered worker (worker index
/// `i` becomes tid `i + 1`), so multi-threaded traces read with labelled
/// lanes in `chrome://tracing` / Perfetto.
pub fn events_to_chrome_trace_named(
    events: &[Event],
    process_name: Option<&str>,
    workers: &[(u32, String)],
) -> String {
    let mut out = String::with_capacity(events.len() * 112 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let meta = |out: &mut String, name: &str, tid: u64, value: &str, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        let _ = write!(out, "\n{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":");
        write_json_string(out, value);
        out.push_str("}}");
    };
    if let Some(process) = process_name {
        meta(&mut out, "process_name", 1, process, &mut first);
        meta(&mut out, "thread_name", 1, "coordinator", &mut first);
    }
    for (index, worker) in workers {
        meta(&mut out, "thread_name", u64::from(*index) + 1, worker, &mut first);
    }
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n{\"name\":");
        write_json_string(&mut out, ev.name);
        match ev.dur_us {
            Some(dur) => {
                let _ = write!(out, ",\"ph\":\"X\",\"ts\":{},\"dur\":{}", ev.ts_us, dur);
            }
            None => {
                let _ = write!(out, ",\"ph\":\"i\",\"ts\":{},\"s\":\"t\"", ev.ts_us);
            }
        }
        out.push_str(",\"pid\":1,\"tid\":1,\"args\":");
        write_args(&mut out, ev);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

fn write_args(out: &mut String, ev: &Event) {
    out.push('{');
    for (i, (key, value)) in ev.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(out, key);
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
}

/// Formats a nanosecond duration for the profile table (aligned, 4
/// significant-ish digits: `431ns`, `12.3µs`, `45.6ms`, `1.23s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Renders the per-phase profile summary table (`--profile`): span names
/// sorted by total wall time, with call counts, total, mean, and max.
pub fn render_profile(snapshot: &Snapshot) -> String {
    let mut rows: Vec<_> = snapshot.spans.iter().collect();
    rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));
    let name_w = rows
        .iter()
        .map(|(n, _)| n.len())
        .chain(std::iter::once("phase".len()))
        .max()
        .unwrap_or(5)
        .min(40);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$} {:>9} {:>10} {:>10} {:>10}",
        "phase", "calls", "total", "mean", "max"
    );
    for (name, agg) in rows {
        let _ = writeln!(
            out,
            "{:<name_w$} {:>9} {:>10} {:>10} {:>10}",
            name,
            agg.count,
            fmt_ns(agg.total_ns),
            fmt_ns(agg.mean_ns()),
            fmt_ns(agg.max_ns),
        );
    }
    if snapshot.spans.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;
    use crate::metrics::SpanAgg;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                ts_us: 10,
                dur_us: Some(5),
                name: "core.mat_vec",
                depth: 1,
                fields: vec![("n", Value::U64(4))],
            },
            Event {
                ts_us: 20,
                dur_us: None,
                name: "sim.op",
                depth: 0,
                fields: vec![("gate", Value::Str("h".into()))],
            },
        ]
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let text = events_to_jsonl(&sample_events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"span\""));
        assert!(lines[0].contains("\"dur_us\":5"));
        assert!(lines[1].contains("\"kind\":\"instant\""));
        assert!(lines[1].contains("\"gate\":\"h\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn chrome_trace_has_required_keys() {
        let text = events_to_chrome_trace(&sample_events());
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"pid\":1"));
        assert!(text.contains("\"ts\":10"));
        assert!(text.contains("\"dur\":5"));
    }

    #[test]
    fn chrome_trace_metadata_records_name_threads() {
        let workers = vec![(1, "shot-worker-1".to_string()), (2, "shot-worker-2".to_string())];
        let text = events_to_chrome_trace_named(&sample_events(), Some("qft16"), &workers);
        assert!(text.contains("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"qft16\"}"));
        assert!(text.contains("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"coordinator\"}"));
        assert!(text.contains("\"tid\":2,\"args\":{\"name\":\"shot-worker-1\"}"));
        assert!(text.contains("\"tid\":3,\"args\":{\"name\":\"shot-worker-2\"}"));
        // Span/instant events still present after the metadata prologue.
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\""));
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_ns(431), "431ns");
        assert_eq!(fmt_ns(12_300), "12.3µs");
        assert_eq!(fmt_ns(45_600_000), "45.6ms");
        assert_eq!(fmt_ns(1_230_000_000), "1.23s");
    }

    #[test]
    fn profile_table_sorts_by_total_time() {
        let snap = Snapshot {
            spans: vec![
                (
                    "fast".to_string(),
                    SpanAgg { count: 10, total_ns: 1_000, max_ns: 200 },
                ),
                (
                    "slow".to_string(),
                    SpanAgg { count: 1, total_ns: 9_000_000, max_ns: 9_000_000 },
                ),
            ],
            ..Snapshot::default()
        };
        let table = render_profile(&snap);
        let slow_at = table.find("slow").unwrap();
        let fast_at = table.find("fast").unwrap();
        assert!(slow_at < fast_at, "slowest phase first:\n{table}");
        assert!(table.contains("calls"));
    }
}
