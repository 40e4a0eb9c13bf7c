//! Shared handling of the reporting flags (`--stats`, `--metrics-out`,
//! `--trace-out`, `--record-timeline`, `--snapshot-stride`) for the
//! subcommands that run the engine. `--stats` and `--metrics-out` report
//! the same merged telemetry snapshot, as text and as JSON.

use crate::args::Args;

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
/// `--record-timeline` additionally arms the per-op timeline recorder on
/// the calling thread (worker threads arm themselves from the flag the
/// shot engine captures) and applies `--snapshot-stride`.
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
        let stride: u32 = args.number("--snapshot-stride", 0)?;
        qdd_telemetry::timeline::set_enabled(true);
        qdd_telemetry::timeline::reset();
        qdd_telemetry::timeline::reset_published();
        qdd_telemetry::timeline::set_worker(0);
        qdd_telemetry::timeline::set_snapshot_stride(stride);
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
/// `--trace-out` (Chrome `trace_event` JSON), the merged per-op timeline to
/// `--record-timeline` (`qdd-timeline-v1` JSONL), and the same snapshot as
/// text to stdout under `--stats`.
///
/// # Errors
///
/// Reports unwritable output paths.
pub fn finish(args: &Args, enabled: bool, workload: Option<&Workload>) -> Result<(), String> {
    if !enabled {
        return Ok(());
    }
    // Merged view: this thread's recordings plus everything worker threads
    // published, so multi-threaded runs report all threads' work. Events
    // stay thread-local (worker event clocks are not comparable).
    let snapshot = qdd_telemetry::merged_snapshot();
    let events = qdd_telemetry::drain_events();
    if let Some(path) = args.value("--metrics-out") {
        std::fs::write(path, snapshot.to_json() + "\n")
            .map_err(|e| format!("writing `{path}`: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = args.value("--trace-out") {
        let payload = qdd_telemetry::sink::events_to_chrome_trace_named(
            &events,
            workload.map(|w| w.name.as_str()),
        );
        std::fs::write(path, payload).map_err(|e| format!("writing `{path}`: {e}"))?;
        let dropped = snapshot.dropped_events;
        if dropped > 0 {
            eprintln!("wrote {} events to {path} ({dropped} dropped at the buffer cap)", events.len());
        } else {
            eprintln!("wrote {} events to {path}", events.len());
        }
    }
    if let Some(path) = args.value("--record-timeline") {
        use qdd_telemetry::timeline;
        let (records, dropped) = timeline::merged_drain();
        let workers = {
            let mut ids: Vec<u32> = records.iter().map(|r| r.worker).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len() as u32
        };
        let meta = timeline::TimelineMeta {
            circuit: workload.map(|w| w.name.clone()).unwrap_or_default(),
            qubits: workload.map_or(0, |w| w.qubits),
            ops: workload.map_or(0, |w| w.ops),
            snapshot_stride: timeline::snapshot_stride(),
            workers: workers.max(1),
        };
        std::fs::write(path, timeline::to_jsonl(&meta, &records, dropped, &events))
            .map_err(|e| format!("writing `{path}`: {e}"))?;
        if dropped > 0 {
            eprintln!(
                "wrote {} timeline records to {path} ({dropped} dropped at the buffer cap)",
                records.len()
            );
        } else {
            eprintln!("wrote {} timeline records to {path}", records.len());
        }
        timeline::set_enabled(false);
    }
    if args.has("--stats") {
        print!("{}", qdd_telemetry::sink::render_stats(&snapshot));
    }
    qdd_telemetry::set_enabled(false);
    Ok(())
}
