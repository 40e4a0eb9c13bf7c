//! Output sinks: Chrome `trace_event` JSON for the event stream, and the
//! `--stats` text rendering of a metrics snapshot.

use crate::event::Event;
use crate::json::write_json_string;
use crate::snapshot::Snapshot;
use std::fmt::Write as _;
use std::io::{self, Write};

/// Writes events in the Chrome `trace_event` format (the
/// `{"traceEvents": […]}` object form), loadable in `chrome://tracing`,
/// Perfetto, or Speedscope for flamegraph-style inspection, one event per
/// line.
///
/// Spans become complete (`"ph":"X"`) events; instants become
/// thread-scoped instant (`"ph":"i"`) events. Lane `l` is tid `l + 1`, so
/// each shot worker gets a row of its own beside the coordinator. With a
/// `process_name`, metadata (`"ph":"M"`) records name the process and each
/// lane that carries an event (`coordinator`, `worker N`). The armed
/// timeline's diagram snapshots (`sim.op`'s `snapshot` field) stay out of
/// the trace.
///
/// # Errors
///
/// Propagates write errors of `out`.
pub fn write_chrome_trace(
    out: &mut impl Write,
    events: &[Event],
    process_name: Option<&str>,
) -> io::Result<()> {
    let mut line = String::with_capacity(256);
    let mut first = true;
    let mut emit = |out: &mut dyn Write, line: &str| -> io::Result<()> {
        out.write_all(if first { b"\n" } else { b",\n" })?;
        first = false;
        out.write_all(line.as_bytes())
    };
    out.write_all(b"{\"traceEvents\":[")?;
    if let Some(process) = process_name {
        let mut lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let threads = lanes.into_iter().map(|lane| {
            let name = match lane {
                0 => "coordinator".to_string(),
                w => format!("worker {w}"),
            };
            ("thread_name", lane + 1, name)
        });
        for (kind, tid, name) in
            std::iter::once(("process_name", 1, process.to_string())).chain(threads)
        {
            line.clear();
            let _ = write!(
                line,
                "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":"
            );
            write_json_string(&mut line, &name);
            line.push_str("}}");
            emit(out, &line)?;
        }
    }
    for ev in events {
        line.clear();
        line.push_str("{\"name\":");
        write_json_string(&mut line, ev.name);
        match ev.dur_us {
            Some(dur) => {
                let _ = write!(line, ",\"ph\":\"X\",\"ts\":{},\"dur\":{}", ev.ts_us, dur);
            }
            None => {
                let _ = write!(line, ",\"ph\":\"i\",\"ts\":{},\"s\":\"t\"", ev.ts_us);
            }
        }
        let _ = write!(line, ",\"pid\":1,\"tid\":{},\"args\":{{", ev.lane + 1);
        let args = ev.fields.iter().filter(|(key, _)| *key != "snapshot");
        for (i, (key, value)) in args.enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_json_string(&mut line, key);
            line.push(':');
            value.write_json(&mut line);
        }
        line.push_str("}}");
        emit(out, &line)?;
    }
    out.write_all(b"\n]}\n")
}

/// Formats a nanosecond duration for the phase table (aligned, 4
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

/// Renders a snapshot as the `--stats` report: every counter and gauge
/// with the value [`Snapshot::to_json`] writes, every histogram's count,
/// min and max, the per-phase table of span aggregates sorted by total
/// wall time (calls, then total, mean and max in [`fmt_ns`] units), and the
/// number of dropped events. Empty sections are left out.
pub fn render_stats(snapshot: &Snapshot) -> String {
    let names = snapshot.counters.iter().map(|(n, _)| n.len());
    let names = names.chain(snapshot.gauges.iter().map(|(n, _)| n.len()));
    let names = names.chain(snapshot.histograms.iter().map(|(n, _)| n.len()));
    let names = names.chain(snapshot.spans.iter().map(|(n, _)| n.len()));
    let w = names.max().unwrap_or(0).clamp(10, 40);
    let mut out = String::new();
    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &snapshot.counters {
            let _ = writeln!(out, "  {name:<w$} {v}");
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &snapshot.gauges {
            let _ = write!(out, "  {name:<w$} ");
            crate::Value::F64(*v).write_json(&mut out);
            out.push('\n');
        }
    }
    if !snapshot.histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:<pad$} {:>10} {:>10} {:>10}",
            "histograms:",
            "count",
            "min",
            "max",
            pad = w + 2
        );
        for (name, h) in &snapshot.histograms {
            let _ = writeln!(
                out,
                "  {name:<w$} {:>10} {:>10} {:>10}",
                h.count, h.min, h.max
            );
        }
    }
    if !snapshot.spans.is_empty() {
        let mut rows: Vec<_> = snapshot.spans.iter().collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));
        let _ = writeln!(
            out,
            "{:<pad$} {:>9} {:>10} {:>10} {:>10}",
            "phases:",
            "calls",
            "total",
            "mean",
            "max",
            pad = w + 2
        );
        for (name, agg) in rows {
            let _ = writeln!(
                out,
                "  {name:<w$} {:>9} {:>10} {:>10} {:>10}",
                agg.count,
                fmt_ns(agg.total_ns),
                fmt_ns(agg.mean_ns()),
                fmt_ns(agg.max_ns),
            );
        }
    }
    let _ = writeln!(
        out,
        "telemetry: {} events dropped at the buffer cap",
        snapshot.dropped_events
    );
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
                lane: 0,
                fields: vec![("n", Value::U64(4))],
            },
            Event {
                ts_us: 20,
                dur_us: None,
                name: "sim.op",
                depth: 0,
                lane: 0,
                fields: vec![("gate", Value::Str("h".into()))],
            },
        ]
    }

    fn chrome_trace(events: &[Event], process_name: Option<&str>) -> String {
        let mut out = Vec::new();
        write_chrome_trace(&mut out, events, process_name).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn chrome_trace_has_required_keys() {
        let text = chrome_trace(&sample_events(), None);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"pid\":1"));
        assert!(text.contains("\"ts\":10"));
        assert!(text.contains("\"dur\":5"));
        assert!(
            !text.contains("\"ph\":\"M\""),
            "no metadata without a process name"
        );
    }

    #[test]
    fn chrome_trace_metadata_records_name_threads() {
        let text = chrome_trace(&sample_events(), Some("qft16"));
        assert!(text.contains("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"qft16\"}"));
        assert!(text.contains("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"coordinator\"}"));
        assert_eq!(text.matches("\"ph\":\"M\"").count(), 2);
        // Span/instant events still present after the metadata prologue.
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\""));
    }

    #[test]
    fn chrome_trace_puts_each_lane_on_its_own_named_tid() {
        let mut events = sample_events();
        events[1].lane = 2;
        events[1]
            .fields
            .push(("snapshot", Value::Str("{\"kind\":\"vector\"}".into())));
        let text = chrome_trace(&events, Some("run"));
        assert!(text.contains("\"tid\":3,\"args\":{\"name\":\"worker 2\"}"));
        assert_eq!(
            text.matches("\"ph\":\"M\"").count(),
            3,
            "no name for the empty lane 1"
        );
        assert!(text.contains("\"pid\":1,\"tid\":3,\"args\":{\"gate\":\"h\"}}"));
        assert!(
            !text.contains("vector"),
            "diagram snapshots stay out of the trace"
        );
        // One object per line between the array brackets.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 3 + events.len());
        assert_eq!(lines[0], "{\"traceEvents\":[");
        assert_eq!(*lines.last().unwrap(), "]}");
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_ns(431), "431ns");
        assert_eq!(fmt_ns(12_300), "12.3µs");
        assert_eq!(fmt_ns(45_600_000), "45.6ms");
        assert_eq!(fmt_ns(1_230_000_000), "1.23s");
    }

    #[test]
    fn stats_report_lists_every_metric_and_sorts_phases_by_total_time() {
        let snap = Snapshot {
            counters: vec![("approx.rounds".to_string(), 3)],
            gauges: vec![("core.compute.hit_rate".to_string(), 0.5)],
            spans: vec![
                (
                    "fast".to_string(),
                    SpanAgg {
                        count: 10,
                        total_ns: 1_000,
                        max_ns: 200,
                    },
                ),
                (
                    "slow".to_string(),
                    SpanAgg {
                        count: 1,
                        total_ns: 9_000_000,
                        max_ns: 9_000_000,
                    },
                ),
            ],
            ..Snapshot::default()
        };
        let report = render_stats(&snap);
        let row = |name: &str| {
            report
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("no row for {name}:\n{report}"))
                .split_whitespace()
                .skip(1)
                .collect::<Vec<_>>()
        };
        assert_eq!(row("approx.rounds"), ["3"]);
        assert_eq!(row("core.compute.hit_rate"), ["0.5"]);
        assert_eq!(row("slow"), ["1", "9.0ms", "9.0ms", "9.0ms"]);
        let slow_at = report.find("slow").unwrap();
        let fast_at = report.find("fast").unwrap();
        assert!(slow_at < fast_at, "slowest phase first:\n{report}");
        assert!(
            !report.contains("histograms:"),
            "empty sections are left out"
        );
        assert!(report.ends_with("telemetry: 0 events dropped at the buffer cap\n"));
    }
}
