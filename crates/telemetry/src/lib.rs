//! Structured tracing, metrics, and profiling hooks for the qdd engine.
//!
//! Decision-diagram performance is dominated by invisible dynamics — unique
//! and compute-table hit rates, garbage-collection pauses, complex-table
//! growth — that wall time alone cannot explain. This crate gives every
//! layer of the engine one uniform observability surface:
//!
//! * a **metrics registry** of named counters and gauges
//!   ([`counter_add`], [`gauge_set`], [`gauge_max`]);
//! * lightweight **spans** — RAII guards over a monotonic clock that
//!   aggregate per-phase wall time and emit structured events
//!   ([`span()`]);
//! * structured **events** with typed fields ([`emit`]), written as
//!   Chrome `trace_event` JSON ([`sink::write_chrome_trace`]), the one
//!   recording of a run: with the per-op fields the armed timeline adds
//!   ([`set_timeline`]) it is the execution timeline `qdd inspect` reads;
//! * one **report** of a run, the merged [`Snapshot`]: written as
//!   `qdd-metrics-v1` JSON ([`Snapshot::to_json`]) or as the `--stats` text
//!   ([`sink::render_stats`]).
//!
//! # Runtime toggle and overhead
//!
//! Recording is off by default. Every recording entry point starts with a
//! single thread-local boolean check ([`enabled`]); with telemetry off, the
//! instrumented hot paths pay exactly that branch — no clock reads, no map
//! lookups, no allocation. Enabling is per-thread ([`set_enabled`]), which
//! keeps parallel test runs isolated from one another.
//!
//! # Multi-threaded runs
//!
//! Worker threads record into their own thread-local registries — no locks
//! or shared state on the hot path — each on its own lane ([`set_lane`]).
//! Before exiting, a worker calls [`publish`] to fold its metrics and move
//! its events into its scope of a process-wide registry; the coordinating
//! thread then reads [`merged_snapshot`] and [`drain_events`], which
//! combine the published registry with its own thread-local recordings.
//! Counters and span aggregates add across threads, gauges take the
//! maximum (see [`Snapshot::merge`]). Every thread stamps events with
//! one process-wide clock, and a drain orders them by lane, then by
//! recording order within the lane, so the merged stream does not depend
//! on thread scheduling.
//!
//! # Example
//!
//! ```
//! qdd_telemetry::set_enabled(true);
//! {
//!     let mut s = qdd_telemetry::span("phase.work");
//!     s.field("items", 3u64);
//!     qdd_telemetry::counter_add("work.items", 3);
//! }
//! let snap = qdd_telemetry::snapshot();
//! assert_eq!(snap.counter("work.items"), Some(3));
//! assert_eq!(snap.span_stats("phase.work").unwrap().count, 1);
//! let events = qdd_telemetry::drain_events();
//! assert_eq!(events.len(), 1);
//! qdd_telemetry::set_enabled(false);
//! ```

mod event;
pub mod json;
mod metrics;
pub mod sink;
mod snapshot;

pub use event::{Event, EventBuilder, Value};
pub use metrics::SpanAgg;
pub use snapshot::Snapshot;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Hard cap on buffered events; beyond it events are counted as dropped
/// instead of stored, bounding memory on very long traced runs.
pub const MAX_EVENTS: usize = 1 << 20;

/// Process-wide registry of what finished worker threads published, keyed
/// by publication **scope** (see [`set_scope`]). Scope `0` is the default
/// process-wide scope; servers give each request its own scope so
/// concurrent jobs' metrics and events never bleed into each other's
/// reports. Off the hot path: touched only by [`publish`] and the readers.
static PUBLISHED: Mutex<BTreeMap<u64, Published>> = Mutex::new(BTreeMap::new());

/// The zero of every event timestamp, shared by all threads so their
/// events interleave on one time axis.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// What one scope's threads published: their merged metrics, and their
/// event buffers in publication order (each buffer one thread's events, in
/// recording order).
#[derive(Default)]
struct Published {
    snapshot: Snapshot,
    events: Vec<Vec<Event>>,
}

/// Source of fresh scope ids ([`next_scope_id`]); `0` stays the default.
static NEXT_SCOPE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

thread_local! {
    /// The hot-path toggle, split from the collector so the disabled check
    /// is a plain `Cell` read with no `RefCell` borrow.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// The scope this thread publishes into and reads merged snapshots
    /// from. Coordinators propagate it to their workers.
    static SCOPE: Cell<u64> = const { Cell::new(0) };
    /// The armed execution timeline's snapshot stride ([`set_timeline`]).
    static TIMELINE: Cell<Option<u32>> = const { Cell::new(None) };
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::new());
}

/// Per-thread telemetry state: metric maps, span aggregates, event buffer.
struct Collector {
    /// Lane stamped onto this thread's events ([`set_lane`]).
    lane: u32,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    spans: BTreeMap<&'static str, SpanAgg>,
    /// Current span nesting depth (for trace viewers).
    depth: u16,
    events: Vec<Event>,
    dropped_events: u64,
}

impl Collector {
    fn new() -> Self {
        Collector {
            lane: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            spans: BTreeMap::new(),
            depth: 0,
            events: Vec::new(),
            dropped_events: 0,
        }
    }

    fn push_event(&mut self, mut ev: Event) {
        if self.events.len() < MAX_EVENTS {
            ev.lane = self.lane;
            self.events.push(ev);
        } else {
            self.dropped_events += 1;
        }
    }
}

/// The published registry, locked.
fn registry() -> MutexGuard<'static, BTreeMap<u64, Published>> {
    PUBLISHED
        .lock()
        .expect("no thread panics while it holds the telemetry registry")
}

/// Microseconds from the process-wide epoch to `t`.
fn micros_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_micros() as u64
}

/// Turns recording on or off for the current thread.
///
/// Enabling does not clear previously recorded data; call [`reset`] for a
/// fresh start.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether recording is on for the current thread — the single branch every
/// instrumentation point pays when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Clears all recorded metrics, span aggregates, and buffered events, and
/// puts the thread back on lane 0. The enabled flag, the timeline switch
/// and the process-wide clock are untouched.
pub fn reset() {
    COLLECTOR.with(|c| *c.borrow_mut() = Collector::new());
}

/// Sets the lane this thread's events are stamped with: 0 (the default) is
/// the coordinator; the shot engine puts worker `w` on lane `w + 1`, its
/// position in shot-range order, so the lanes of a run do not depend on
/// thread scheduling. Trace viewers show one lane per thread.
pub fn set_lane(lane: u32) {
    COLLECTOR.with(|c| c.borrow_mut().lane = lane);
}

/// Arms (`Some(stride)`) or disarms (`None`) the execution timeline on
/// this thread. While it is armed and recording is on, every `sim.op`
/// event also carries per-op fields — counters as deltas over the op
/// (`nodes_allocated`, `nodes_freed`, compute-table and gate-cache hits
/// and misses; they telescope to the package totals), gauges at its end,
/// the level profile — and every `stride`-th op (0 = none) a structural
/// snapshot of the diagram (`snapshot`, a graph JSON document). The shot
/// engine hands the switch on to its workers.
pub fn set_timeline(stride: Option<u32>) {
    TIMELINE.with(|t| t.set(stride));
}

/// The armed timeline's snapshot stride: `None` while the timeline is
/// disarmed or recording is off, which costs the caller one branch.
#[inline]
pub fn timeline_stride() -> Option<u32> {
    if !enabled() {
        return None;
    }
    TIMELINE.with(|t| t.get())
}

/// Adds `delta` to the named counter (creating it at zero).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        *c.borrow_mut().counters.entry(name).or_insert(0) += delta;
    });
}

/// Sets the named gauge to `value`.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        c.borrow_mut().gauges.insert(name, value);
    });
}

/// Raises the named gauge to `value` if that is higher than its current
/// value: a high-water mark, merged across threads like every gauge.
#[inline]
pub fn gauge_max(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let gauge = c.gauges.entry(name).or_insert(value);
        *gauge = gauge.max(value);
    });
}

/// An RAII span guard. While alive it marks a phase; on drop it adds the
/// elapsed wall time to the per-name aggregate and emits one span event.
///
/// Created inert (no clock read, no recording) when telemetry is disabled.
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    ts_us: u64,
    depth: u16,
    fields: Vec<(&'static str, Value)>,
}

/// Opens a span named `name`. Bind the guard (`let _span = …`) so it lives
/// to the end of the phase; an unbound guard closes immediately.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    let depth = COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let depth = c.depth;
        c.depth = c.depth.saturating_add(1);
        depth
    });
    let start = Instant::now();
    Span {
        active: Some(ActiveSpan {
            name,
            start,
            ts_us: micros_since_epoch(start),
            depth,
            fields: Vec::new(),
        }),
    }
}

impl Span {
    /// Attaches a typed field to the span's closing event. No-op on an
    /// inert (telemetry-disabled) span.
    pub fn field(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(a) = &mut self.active {
            a.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let end = Instant::now();
        let elapsed_ns = end.duration_since(a.start).as_nanos() as u64;
        // The duration is taken on the epoch clock too, so every event
        // recorded inside the span has a `ts_us` within it.
        let dur_us = micros_since_epoch(end) - a.ts_us;
        COLLECTOR.with(|c| {
            let mut c = c.borrow_mut();
            c.depth = c.depth.saturating_sub(1);
            c.spans.entry(a.name).or_default().record(elapsed_ns);
            c.push_event(Event {
                ts_us: a.ts_us,
                dur_us: Some(dur_us),
                name: a.name,
                depth: a.depth,
                lane: 0,
                fields: a.fields,
            });
        });
    }
}

/// Starts an instant (zero-duration) structured event. Chain `.field(…)`
/// calls; the event is recorded when the builder drops:
///
/// ```
/// qdd_telemetry::set_enabled(true);
/// qdd_telemetry::emit("sim.op").field("op_index", 3u64).field("gate", "h");
/// # qdd_telemetry::set_enabled(false);
/// # qdd_telemetry::drain_events();
/// ```
#[inline]
pub fn emit(name: &'static str) -> EventBuilder {
    if !enabled() {
        return EventBuilder::inert();
    }
    let depth = COLLECTOR.with(|c| c.borrow().depth);
    EventBuilder::new(Event {
        ts_us: micros_since_epoch(Instant::now()),
        dur_us: None,
        name,
        depth,
        lane: 0,
        fields: Vec::new(),
    })
}

pub(crate) fn record_event(ev: Event) {
    COLLECTOR.with(|c| c.borrow_mut().push_event(ev));
}

/// A consistent snapshot of every metric and span aggregate recorded on
/// this thread. Deterministic: names are reported in sorted order, so two
/// identical recordings serialize identically.
pub fn snapshot() -> Snapshot {
    COLLECTOR.with(|c| {
        let c = c.borrow();
        Snapshot::build(&c.counters, &c.gauges, &c.spans, c.dropped_events)
    })
}

/// Publishes this thread's recorded metrics and buffered events into its
/// scope of the process-wide registry and clears them from the
/// thread-local collector, so repeated publishing never double-counts.
/// Worker threads call this before exiting; the coordinating thread then
/// sees their work via [`merged_snapshot`] and [`drain_events`].
pub fn publish() {
    let (snap, events) = COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let snap = Snapshot::build(&c.counters, &c.gauges, &c.spans, c.dropped_events);
        c.counters.clear();
        c.gauges.clear();
        c.spans.clear();
        c.dropped_events = 0;
        (snap, std::mem::take(&mut c.events))
    });
    if snap == Snapshot::default() && events.is_empty() {
        return;
    }
    let mut published = registry();
    let scope = published.entry(scope_id()).or_default();
    scope.snapshot.merge(&snap);
    if !events.is_empty() {
        scope.events.push(events);
    }
}

/// A snapshot combining everything published into this thread's scope by
/// worker threads ([`publish`]) with the current thread's own recordings.
/// Reading does not consume either side, so repeated calls are consistent.
/// Deterministic: names stay sorted and all merge operations are
/// commutative.
pub fn merged_snapshot() -> Snapshot {
    let mut snap = registry()
        .get(&scope_id())
        .map(|p| p.snapshot.clone())
        .unwrap_or_default();
    snap.merge(&snapshot());
    snap
}

/// Consumes and returns this thread's scope: the local collector is folded
/// in (and cleared) and the scope's published entry, events included, is
/// removed from the process-wide registry. This is the per-request read a
/// server makes once a job finishes — the returned snapshot covers exactly
/// that request's coordinator and workers, and the registry does not leak
/// per-request entries.
pub fn take_merged_snapshot() -> Snapshot {
    publish();
    // Unlocked before the scope's events are freed.
    let taken = registry().remove(&scope_id());
    taken.map(|p| p.snapshot).unwrap_or_default()
}

/// The publication scope of the current thread (`0` = process-wide
/// default).
pub fn scope_id() -> u64 {
    SCOPE.with(|s| s.get())
}

/// Sets the publication scope of the current thread. Coordinators (e.g. the
/// shot engine) read their own scope and propagate it to workers, so a
/// request's whole thread tree publishes into one scope.
pub fn set_scope(id: u64) {
    SCOPE.with(|s| s.set(id));
}

/// Allocates a fresh, never-before-used scope id (process-unique).
pub fn next_scope_id() -> u64 {
    NEXT_SCOPE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Clears the process-wide published registry — metrics and events of
/// every scope. The thread-local collector is untouched; pair with
/// [`reset`] for a fully fresh start.
pub fn reset_published() {
    registry().clear();
}

/// Removes and returns every event published into this thread's scope
/// ([`publish`]) together with the thread's own buffer, ordered by lane and,
/// within a lane, by recording order (spans in completion order).
pub fn drain_events() -> Vec<Event> {
    let local = COLLECTOR.with(|c| std::mem::take(&mut c.borrow_mut().events));
    let published = registry()
        .get_mut(&scope_id())
        .map(|p| std::mem::take(&mut p.events))
        .unwrap_or_default();
    if published.is_empty() {
        return local;
    }
    let mut events: Vec<Event> = published.into_iter().flatten().chain(local).collect();
    // Stable: each lane keeps its recording order.
    events.sort_by_key(|e| e.lane);
    events
}

/// Number of events dropped after the [`MAX_EVENTS`] buffer cap was hit.
pub fn dropped_events() -> u64 {
    COLLECTOR.with(|c| c.borrow().dropped_events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() {
        set_enabled(true);
        reset();
    }

    #[test]
    fn disabled_records_nothing() {
        set_enabled(false);
        reset();
        counter_add("c", 1);
        gauge_set("g", 1.0);
        gauge_max("m", 1.0);
        let mut s = span("s");
        s.field("k", 1u64);
        drop(s);
        emit("e").field("k", 1u64);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.spans.is_empty());
        assert!(drain_events().is_empty());
    }

    #[test]
    fn counters_gauges_accumulate() {
        fresh();
        counter_add("ops", 2);
        counter_add("ops", 3);
        gauge_set("level", 4.0);
        gauge_set("level", 7.0);
        gauge_max("peak", 9.0);
        gauge_max("peak", 3.0);
        let snap = snapshot();
        assert_eq!(snap.counter("ops"), Some(5));
        assert_eq!(snap.gauge("level"), Some(7.0));
        assert_eq!(snap.gauge("peak"), Some(9.0), "a lower value keeps the mark");
        set_enabled(false);
    }

    #[test]
    fn span_nesting_tracks_depth_and_aggregates() {
        fresh();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        let snap = snapshot();
        assert_eq!(snap.span_stats("outer").unwrap().count, 1);
        assert_eq!(snap.span_stats("inner").unwrap().count, 2);
        let events = drain_events();
        // Spans close inner-first.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[2].name, "outer");
        assert_eq!(events[2].depth, 0);
        // The outer span covers both inner spans.
        let outer = &events[2];
        for inner in &events[..2] {
            assert!(inner.ts_us >= outer.ts_us);
        }
        set_enabled(false);
    }

    #[test]
    fn event_fields_round_trip() {
        fresh();
        emit("evt")
            .field("u", 3u64)
            .field("s", "text")
            .field("f", 1.5f64)
            .field("b", true);
        let events = drain_events();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.name, "evt");
        assert_eq!(ev.dur_us, None);
        assert_eq!(ev.fields.len(), 4);
        assert!(matches!(ev.fields[0], ("u", Value::U64(3))));
        set_enabled(false);
    }

    #[test]
    fn snapshot_merge_combines_all_metric_kinds() {
        fresh();
        counter_add("m.ops", 2);
        gauge_set("m.level", 4.0);
        gauge_max("m.peak", 5.0);
        {
            let _s = span("m.phase");
        }
        let a = snapshot();
        reset();
        counter_add("m.ops", 3);
        counter_add("m.extra", 1);
        gauge_set("m.level", 9.0);
        gauge_max("m.peak", 1000.0);
        {
            let _s = span("m.phase");
        }
        let b = snapshot();
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.counter("m.ops"), Some(5));
        assert_eq!(merged.counter("m.extra"), Some(1));
        assert_eq!(merged.gauge("m.level"), Some(9.0));
        assert_eq!(merged.gauge("m.peak"), Some(1000.0));
        assert_eq!(merged.span_stats("m.phase").unwrap().count, 2);
        // Merge is commutative — same result from the other direction.
        let mut rev = b.clone();
        rev.merge(&a);
        assert_eq!(merged, rev);
        reset();
        set_enabled(false);
    }

    #[test]
    fn publish_feeds_merged_snapshot_without_double_counting() {
        fresh();
        set_scope(next_scope_id());
        let scope = scope_id();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    set_enabled(true);
                    set_scope(scope);
                    counter_add("pubtest.work", 10);
                    gauge_set("pubtest.peak", 2.0);
                    publish();
                    // Publishing drained the thread-local registry.
                    assert_eq!(snapshot().counter("pubtest.work"), None);
                    publish(); // second publish is a no-op
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        counter_add("pubtest.work", 1); // coordinator's own share
        let merged = merged_snapshot();
        assert_eq!(merged.counter("pubtest.work"), Some(31));
        assert_eq!(merged.gauge("pubtest.peak"), Some(2.0));
        // Reading again is consistent (merged_snapshot does not consume).
        assert_eq!(merged_snapshot().counter("pubtest.work"), Some(31));
        take_merged_snapshot();
        set_scope(0);
        set_enabled(false);
    }

    #[test]
    fn published_events_drain_by_lane_on_one_clock() {
        fresh();
        set_scope(next_scope_id());
        let scope = scope_id();
        let outer = span("lanetest.job");
        // Workers finish in reverse lane order; the drain still orders by
        // lane, each lane in recording order.
        for lane in [2u32, 1] {
            std::thread::spawn(move || {
                set_enabled(true);
                set_scope(scope);
                set_lane(lane);
                emit("lanetest.first");
                emit("lanetest.second");
                publish();
            })
            .join()
            .unwrap();
        }
        drop(outer);
        emit("lanetest.after");
        let events = drain_events();
        let order: Vec<(u32, &str)> = events.iter().map(|e| (e.lane, e.name)).collect();
        assert_eq!(
            order,
            [
                (0, "lanetest.job"),
                (0, "lanetest.after"),
                (1, "lanetest.first"),
                (1, "lanetest.second"),
                (2, "lanetest.first"),
                (2, "lanetest.second"),
            ]
        );
        // Worker events fall inside the coordinator's span on the shared
        // clock.
        let job = &events[0];
        let end = job.ts_us + job.dur_us.unwrap();
        for ev in &events[2..] {
            assert!(
                (job.ts_us..=end).contains(&ev.ts_us),
                "{ev:?} outside {job:?}"
            );
        }
        assert!(
            drain_events().is_empty(),
            "draining consumes the scope's events"
        );
        take_merged_snapshot();
        set_scope(0);
        reset();
        set_enabled(false);
    }

    #[test]
    fn timeline_switch_reads_off_while_recording_is_off() {
        set_timeline(Some(4));
        set_enabled(false);
        assert_eq!(timeline_stride(), None);
        set_enabled(true);
        assert_eq!(timeline_stride(), Some(4));
        set_timeline(None);
        assert_eq!(timeline_stride(), None);
        set_enabled(false);
    }

    #[test]
    fn scopes_isolate_published_metrics() {
        fresh();
        let scope_a = next_scope_id();
        let scope_b = next_scope_id();
        let spawn = |scope: u64, amount: u64| {
            std::thread::spawn(move || {
                set_enabled(true);
                set_scope(scope);
                counter_add("scopetest.work", amount);
                publish();
            })
        };
        spawn(scope_a, 5).join().unwrap();
        spawn(scope_b, 7).join().unwrap();
        set_scope(scope_a);
        // Each scope sees only its own published metrics.
        assert_eq!(merged_snapshot().counter("scopetest.work"), Some(5));
        let taken = take_merged_snapshot();
        assert_eq!(taken.counter("scopetest.work"), Some(5));
        // Taking consumes the scope's entry.
        assert_eq!(merged_snapshot().counter("scopetest.work"), None);
        set_scope(scope_b);
        assert_eq!(take_merged_snapshot().counter("scopetest.work"), Some(7));
        set_scope(0);
        reset();
        set_enabled(false);
    }

    #[test]
    fn event_buffer_caps_and_counts_drops() {
        fresh();
        // Simulate the cap without a million allocations by filling directly.
        COLLECTOR.with(|c| {
            let mut c = c.borrow_mut();
            for _ in 0..MAX_EVENTS {
                let ev = Event {
                    ts_us: 0,
                    dur_us: None,
                    name: "x",
                    depth: 0,
                    lane: 0,
                    fields: Vec::new(),
                };
                c.push_event(ev);
            }
        });
        emit("overflow");
        assert_eq!(dropped_events(), 1);
        assert_eq!(drain_events().len(), MAX_EVENTS);
        reset();
        set_enabled(false);
    }
}
