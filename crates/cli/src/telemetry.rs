//! Shared handling of the reporting flags (`--stats`, `--metrics-out`,
//! `--trace-out`, `--snapshot-stride`) for the subcommands that run the
//! engine. `--stats` and `--metrics-out` report the same merged telemetry
//! snapshot, as text and as JSON; `--trace-out` records the run's event
//! stream with per-op detail, the file `qdd inspect` reads.

use crate::args::Args;
use qdd_telemetry::sink::TraceHeader;
use std::fs::File;
use std::io::{BufWriter, Write};

/// Turns recording on when any telemetry output was requested. Returns
/// `true` if recording was enabled (callers pass it to [`finish`]).
///
/// `--trace-out` additionally arms the timeline on the calling thread with
/// the `--snapshot-stride` (the shot engine hands the switch on to its
/// workers), so `sim.op` events carry the per-op fields.
///
/// # Errors
///
/// Reports an unparsable `--snapshot-stride`, or one without `--trace-out`.
pub fn start(args: &Args) -> Result<bool, String> {
    let trace = args.value("--trace-out").is_some();
    let wanted = trace || args.has("--stats") || args.value("--metrics-out").is_some();
    if wanted {
        qdd_telemetry::set_enabled(true);
        qdd_telemetry::reset();
        qdd_telemetry::reset_published();
    }
    if trace {
        qdd_telemetry::set_timeline(Some(args.number("--snapshot-stride", 0)?));
    } else if args.value("--snapshot-stride").is_some() {
        return Err(
            "option `--snapshot-stride` requires `--trace-out` \
             (snapshots are embedded in the trace)"
                .to_string(),
        );
    }
    Ok(wanted)
}

/// Writes the requested telemetry outputs: the metrics snapshot to
/// `--metrics-out` (`qdd-metrics-v1` JSON), the event stream to
/// `--trace-out` (Chrome `trace_event` JSON, headed by `workload` with the
/// snapshot stride and drop count filled in), and the same snapshot as
/// text to stdout under `--stats`. Both readings merge this thread's
/// recordings with everything worker threads published, so the files
/// count the same work.
///
/// # Errors
///
/// Reports unwritable output paths.
pub fn finish(args: &Args, enabled: bool, workload: Option<&TraceHeader>) -> Result<(), String> {
    if !enabled {
        return Ok(());
    }
    let snapshot = qdd_telemetry::merged_snapshot();
    let events = qdd_telemetry::drain_events();
    let dropped = snapshot.dropped_events;
    if let Some(path) = args.value("--metrics-out") {
        std::fs::write(path, snapshot.to_json() + "\n")
            .map_err(|e| format!("writing `{path}`: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = args.value("--trace-out") {
        let header = TraceHeader {
            snapshot_stride: qdd_telemetry::timeline_stride().unwrap_or(0),
            dropped_events: dropped,
            ..workload.cloned().unwrap_or_default()
        };
        let mut out =
            BufWriter::new(File::create(path).map_err(|e| format!("writing `{path}`: {e}"))?);
        qdd_telemetry::sink::write_chrome_trace(&mut out, &events, &header)
            .and_then(|()| out.flush())
            .map_err(|e| format!("writing `{path}`: {e}"))?;
        let at_cap = if dropped > 0 {
            format!(" ({dropped} events dropped at the buffer cap)")
        } else {
            String::new()
        };
        eprintln!("wrote {} events to {path}{at_cap}", events.len());
        qdd_telemetry::set_timeline(None);
    }
    if args.has("--stats") {
        print!("{}", qdd_telemetry::sink::render_stats(&snapshot));
    }
    qdd_telemetry::set_enabled(false);
    Ok(())
}
