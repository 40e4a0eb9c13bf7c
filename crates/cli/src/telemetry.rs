//! Shared handling of the reporting flags (`--stats`, `--metrics-out`,
//! `--trace-out`, `--record-timeline`, `--snapshot-stride`) for the
//! subcommands that run the engine. `--stats` and `--metrics-out` report
//! the same merged telemetry snapshot, as text and as JSON.

use crate::args::Args;
use std::fs::File;
use std::io::{BufWriter, Write};

/// What ran, for the timeline header and the Chrome-trace `process_name`
/// metadata. Built by the subcommand once the circuit is loaded.
pub struct Workload {
    pub name: String,
    pub qubits: usize,
    pub ops: usize,
}

/// Turns recording on when any telemetry output was requested. Returns
/// `true` if recording was enabled (callers pass it to [`finish`]).
///
/// `--record-timeline` additionally arms the timeline on the calling
/// thread with the `--snapshot-stride` (the shot engine hands the switch
/// on to its workers), so `sim.op` events carry the per-op fields.
///
/// # Errors
///
/// Reports an unparsable `--snapshot-stride`.
pub fn start(args: &Args) -> Result<bool, String> {
    let timeline = args.value("--record-timeline").is_some();
    let wanted = args.has("--stats")
        || args.value("--metrics-out").is_some()
        || args.value("--trace-out").is_some()
        || timeline;
    if wanted {
        qdd_telemetry::set_enabled(true);
        qdd_telemetry::reset();
        qdd_telemetry::reset_published();
    }
    if timeline {
        qdd_telemetry::set_timeline(Some(args.number("--snapshot-stride", 0)?));
    } else if args.value("--snapshot-stride").is_some() {
        return Err(
            "option `--snapshot-stride` requires `--record-timeline` \
             (snapshots are embedded in the timeline stream)"
                .to_string(),
        );
    }
    Ok(wanted)
}

/// Writes the requested telemetry outputs: the metrics snapshot to
/// `--metrics-out` (`qdd-metrics-v1` JSON), the event stream to
/// `--trace-out` (Chrome `trace_event` JSON) and to `--record-timeline`
/// (`qdd-timeline-v1` JSONL), and the same snapshot as text to stdout
/// under `--stats`. Both readings merge this thread's recordings with
/// everything worker threads published, so all three files count the same
/// work.
///
/// # Errors
///
/// Reports unwritable output paths.
pub fn finish(args: &Args, enabled: bool, workload: Option<&Workload>) -> Result<(), String> {
    if !enabled {
        return Ok(());
    }
    let snapshot = qdd_telemetry::merged_snapshot();
    let events = qdd_telemetry::drain_events();
    let dropped = snapshot.dropped_events;
    let at_cap = if dropped > 0 {
        format!(" ({dropped} events dropped at the buffer cap)")
    } else {
        String::new()
    };
    if let Some(path) = args.value("--metrics-out") {
        std::fs::write(path, snapshot.to_json() + "\n")
            .map_err(|e| format!("writing `{path}`: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = args.value("--trace-out") {
        let process = workload.map(|w| w.name.as_str());
        write_file(path, |out| {
            qdd_telemetry::sink::write_chrome_trace(out, &events, process)
        })?;
        eprintln!("wrote {} events to {path}{at_cap}", events.len());
    }
    if let Some(path) = args.value("--record-timeline") {
        let meta = qdd_telemetry::timeline::TimelineMeta {
            circuit: workload.map(|w| w.name.clone()).unwrap_or_default(),
            qubits: workload.map_or(0, |w| w.qubits),
            ops: workload.map_or(0, |w| w.ops),
            snapshot_stride: qdd_telemetry::timeline_stride().unwrap_or(0),
        };
        let records = write_file(path, |out| {
            qdd_telemetry::timeline::write_jsonl(out, &meta, &events, dropped)
        })?;
        eprintln!("wrote {records} timeline records to {path}{at_cap}");
        qdd_telemetry::set_timeline(None);
    }
    if args.has("--stats") {
        print!("{}", qdd_telemetry::sink::render_stats(&snapshot));
    }
    qdd_telemetry::set_enabled(false);
    Ok(())
}

/// Creates `path` and streams `write` into it through a buffer.
fn write_file<T>(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<T>,
) -> Result<T, String> {
    let mut out = BufWriter::new(File::create(path).map_err(|e| format!("writing `{path}`: {e}"))?);
    let written = write(&mut out).and_then(|t| out.flush().map(|()| t));
    written.map_err(|e| format!("writing `{path}`: {e}"))
}
