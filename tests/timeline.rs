//! The execution timeline must observe, never perturb: with it armed,
//! amplitudes and shot histograms are bit-identical to a recording-off run
//! at every thread count, per-op cache-hit deltas sum to the run-level
//! package totals, and the disarmed probe costs one branch.
//!
//! The timeline is the event stream written by
//! `qdd_telemetry::timeline::write_jsonl`; the tests read the JSONL back.
//! Recording state is thread-local, and only the shot test publishes from
//! other threads, into a scope of its own.

use qdd::circuit::{library, Condition, QuantumCircuit, StandardGate};
use qdd::sim::{shots, DdSimulator, ShotOptions};
use qdd::telemetry::json::{parse_json, JsonValue};
use qdd::telemetry::{self, timeline};
use std::time::Instant;

/// GHZ preparation plus rotation and entangling layers: touches the gate
/// cache, the compute tables, and node allocation/free paths, while staying
/// exactly reproducible.
fn workload() -> QuantumCircuit {
    let mut qc = library::ghz(10);
    for q in 0..10 {
        qc.ry(0.17 + 0.05 * q as f64, q);
    }
    for q in 0..9 {
        qc.cx(q, q + 1);
    }
    qc
}

/// A circuit the shot engine must re-execute per shot (mid-circuit
/// measurement feeding classical control).
fn mid_circuit_workload() -> QuantumCircuit {
    let mut qc = QuantumCircuit::with_name(3, "timeline-mid");
    let creg = qc.add_creg("c", 3);
    qc.h(0);
    qc.measure(0, 0);
    qc.gate_if(StandardGate::X, Vec::new(), 1, Condition { creg, value: 1 });
    qc.cx(1, 2);
    qc.measure(1, 1);
    qc.measure(2, 2);
    qc
}

fn run(circuit: QuantumCircuit) -> DdSimulator {
    let mut sim = DdSimulator::with_seed(circuit, 7);
    sim.run().expect("simulation");
    sim
}

/// Turns recording on with the timeline armed at `stride`.
fn arm(stride: u32) {
    telemetry::set_enabled(true);
    telemetry::reset();
    telemetry::set_timeline(Some(stride));
}

fn disarm() {
    telemetry::set_timeline(None);
    telemetry::set_enabled(false);
    telemetry::reset();
}

/// The timeline of everything recorded so far (events drained), as parsed
/// JSONL lines: the header, then every other line.
fn timeline_lines() -> (JsonValue, Vec<JsonValue>) {
    let events = telemetry::drain_events();
    let meta = timeline::TimelineMeta::default();
    let mut out = Vec::new();
    let records = timeline::write_jsonl(&mut out, &meta, &events, 0).expect("in-memory write");
    let text = String::from_utf8(out).expect("UTF-8 JSONL");
    let mut lines = text
        .lines()
        .map(|l| parse_json(l).expect("one JSON object per line"));
    let header = lines.next().expect("header line");
    let rest: Vec<JsonValue> = lines.collect();
    assert_eq!(records, rest.iter().filter(|l| kind(l) == "op").count());
    (header, rest)
}

fn kind(line: &JsonValue) -> &str {
    line.get("type").and_then(JsonValue::as_str).unwrap_or("")
}

fn ops(lines: &[JsonValue]) -> Vec<&JsonValue> {
    lines.iter().filter(|l| kind(l) == "op").collect()
}

fn num(line: &JsonValue, key: &str) -> u64 {
    line.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("no `{key}` in {line:?}"))
}

#[test]
fn recording_is_bit_identical_to_off() {
    disarm();
    let plain = run(workload());

    arm(4);
    let recorded = run(workload());
    let dropped = telemetry::snapshot().dropped_events;
    let (header, lines) = timeline_lines();
    disarm();

    // Amplitudes must match to the bit, not merely to a tolerance: the
    // timeline reads engine counters, it must never touch the arithmetic.
    let a = plain.dense_state();
    let b = recorded.dense_state();
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "amplitude {i} diverged: {x:?} vs {y:?}"
        );
    }
    assert_eq!(plain.node_count(), recorded.node_count());
    assert_eq!(plain.stats(), recorded.stats());
    assert_eq!(plain.package().stats(), recorded.package().stats());

    // One record per applied operation, none dropped.
    assert_eq!(ops(&lines).len(), recorded.stats().applied_ops);
    assert_eq!(
        num(&header, "records") as usize,
        recorded.stats().applied_ops
    );
    assert_eq!(dropped, 0);
}

#[test]
fn per_op_deltas_sum_to_package_totals() {
    arm(0);
    let sim = run(workload());
    let (_, lines) = timeline_lines();
    disarm();
    let records = ops(&lines);
    let sum = |key: &str| records.iter().map(|r| num(r, key)).sum::<u64>();

    let pkg = sim.package().stats();
    let compute_hits = sum("compute_hits");
    let gate_hits = sum("gate_hits");

    // The deltas telescope: every lookup the package made happened inside
    // exactly one op's window (state preparation does none).
    assert_eq!(compute_hits, pkg.cache_hits, "compute hits attribute fully");
    assert_eq!(
        compute_hits + sum("compute_misses"),
        pkg.cache_lookups,
        "compute lookups attribute fully"
    );
    assert_eq!(gate_hits, pkg.gate_cache_hits, "gate hits attribute fully");
    assert_eq!(
        gate_hits + sum("gate_misses"),
        pkg.gate_cache_lookups,
        "gate lookups attribute fully"
    );

    // Node accounting balances: births minus frees across all op windows
    // telescopes to the net growth of the package's live population (the
    // windows are contiguous — nothing touches the package between ops).
    let initial = DdSimulator::with_seed(workload(), 7)
        .package()
        .live_node_estimate() as u64;
    let final_live = sim.package().live_node_estimate() as u64;
    assert_eq!(
        initial + sum("nodes_allocated") - sum("nodes_freed"),
        final_live
    );

    // Peak never decreases and dominates every live reading; the one walk
    // per op gives both the level profile and the node count.
    let mut prev_peak = 0;
    for r in &records {
        let peak = num(r, "peak_nodes");
        assert!(peak >= prev_peak, "peak is monotone");
        assert!(peak >= num(r, "vec_nodes"), "peak dominates live");
        prev_peak = peak;
        let levels = r
            .get("levels")
            .and_then(JsonValue::as_array)
            .expect("level profile");
        let total: u64 = levels.iter().filter_map(JsonValue::as_u64).sum();
        assert_eq!(total, num(r, "vec_nodes"), "levels sum to the node count");
    }
}

#[test]
fn shot_histograms_match_off_run_at_every_thread_count() {
    let circuit = mid_circuit_workload();
    disarm();
    let mut baseline_opts = ShotOptions::new(96, 5);
    baseline_opts.threads = 1;
    let baseline = shots::run(&circuit, &baseline_opts).expect("baseline shots");

    for threads in [1usize, 2, 4] {
        let mut orders = Vec::new();
        for _ in 0..2 {
            telemetry::set_scope(telemetry::next_scope_id());
            arm(0);
            let mut opts = ShotOptions::new(96, 5);
            opts.threads = threads;
            let report = shots::run(&circuit, &opts).expect("recorded shots");
            let dropped = telemetry::merged_snapshot().dropped_events;
            let (header, lines) = timeline_lines();
            telemetry::take_merged_snapshot();
            telemetry::set_scope(0);
            disarm();

            assert_eq!(
                report.histogram, baseline.histogram,
                "histogram diverged at {threads} threads with recording on"
            );
            assert_eq!(dropped, 0);
            let records = ops(&lines);
            assert!(!records.is_empty(), "workers recorded at {threads} threads");
            assert_eq!(num(&header, "workers") as usize, threads);

            // The merge is ordered by (worker, run, seq), with op indices
            // monotonic within each (worker, run) pass.
            let mut prev: Option<(u64, u64, u64, u64)> = None;
            for r in &records {
                let key = (
                    num(r, "worker"),
                    num(r, "run"),
                    num(r, "seq"),
                    num(r, "op_index"),
                );
                if let Some(p) = prev {
                    assert!(key > p, "merge order violated: {p:?} then {key:?}");
                    if (p.0, p.1) == (key.0, key.1) {
                        assert!(key.3 > p.3, "op_index not monotonic in a run");
                    }
                }
                prev = Some(key);
            }
            let order: Vec<_> = records
                .iter()
                .map(|r| (num(r, "worker"), num(r, "run"), num(r, "op_index")))
                .collect();
            orders.push(order);
        }
        assert_eq!(
            orders[0], orders[1],
            "merged order changed between runs at {threads} threads"
        );
    }
}

#[test]
fn snapshot_stride_captures_every_kth_op() {
    arm(4);
    let sim = run(workload());
    let (_, lines) = timeline_lines();
    disarm();

    let records = ops(&lines);
    let snapshots: Vec<_> = lines.iter().filter(|l| kind(l) == "snapshot").collect();
    let expected = records
        .iter()
        .filter(|r| num(r, "op_index").is_multiple_of(4))
        .count();
    assert_eq!(snapshots.len(), expected, "one snapshot per stride hit");
    assert!(!snapshots.is_empty());
    for s in &snapshots {
        assert!(
            num(s, "op_index").is_multiple_of(4),
            "snapshots land on stride boundaries"
        );
        let graph = s.get("graph").expect("inline graph");
        assert_eq!(
            graph.get("kind").and_then(JsonValue::as_str),
            Some("vector")
        );
    }
    drop(sim);
}

#[test]
fn disabled_probe_costs_a_branch() {
    disarm();
    // Armed but with recording off, the probe still reads as off.
    telemetry::set_timeline(Some(4));

    // Ten million disabled probes: the cost is a thread-local read and a
    // branch. The bound leaves generous headroom for slow CI machines while
    // still catching an accidental clock read, counter read, or allocation
    // on the disabled path.
    const N: u64 = 10_000_000;
    let t0 = Instant::now();
    let mut armed = 0u64;
    for _ in 0..N {
        if std::hint::black_box(telemetry::timeline_stride()).is_some() {
            armed += 1;
        }
    }
    let elapsed = t0.elapsed();
    assert_eq!(armed, 0);
    assert!(
        elapsed.as_millis() < 2_000,
        "disabled timeline probe too slow: {N} probes took {elapsed:?}"
    );

    // And a full simulation with recording off leaves no trace.
    let _ = run(workload());
    assert!(telemetry::drain_events().is_empty());
    assert_eq!(telemetry::snapshot().dropped_events, 0);
    disarm();
}
