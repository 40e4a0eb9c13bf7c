//! The execution timeline must observe, never perturb: with it armed,
//! amplitudes and shot histograms are bit-identical to a recording-off run
//! at every thread count, per-op cache-hit deltas sum to the run-level
//! package totals, and the disarmed probe costs one branch.
//!
//! The timeline is the event stream with per-op fields, recorded as the
//! Chrome trace `qdd_telemetry::sink::write_chrome_trace` writes; the
//! tests read it back with `qdd inspect`'s reader. Recording state is
//! thread-local, and only the shot test publishes from other threads, into
//! a scope of its own.

use qdd::circuit::{library, Condition, QuantumCircuit, StandardGate};
use qdd::core::graph::NodeKind;
use qdd::sim::{shots, DdSimulator, ShotOptions};
use qdd::telemetry::{self, sink};
use qdd::viz::inspect::{parse_trace, OpLine, TimelineDoc};
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

/// The trace of everything recorded so far (events drained), read back.
fn timeline() -> TimelineDoc {
    let events = telemetry::drain_events();
    let mut out = Vec::new();
    sink::write_chrome_trace(&mut out, &events, &sink::TraceHeader::default())
        .expect("in-memory write");
    parse_trace(&String::from_utf8(out).expect("UTF-8 trace")).expect("the reader reads the writer")
}

#[test]
fn recording_is_bit_identical_to_off() {
    disarm();
    let plain = run(workload());

    arm(4);
    let recorded = run(workload());
    let dropped = telemetry::snapshot().dropped_events;
    let doc = timeline();
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
    assert_eq!(doc.ops.len(), recorded.stats().applied_ops);
    assert_eq!(dropped, 0);
}

#[test]
fn per_op_deltas_sum_to_package_totals() {
    arm(0);
    let sim = run(workload());
    let records = timeline().ops;
    disarm();
    let sum = |field: fn(&OpLine) -> u64| records.iter().map(field).sum::<u64>();

    let pkg = sim.package().stats();
    let compute_hits = sum(|r| r.compute_hits);
    let gate_hits = sum(|r| r.gate_hits);

    // The deltas telescope: every lookup the package made happened inside
    // exactly one op's window (state preparation does none).
    assert_eq!(compute_hits, pkg.cache_hits, "compute hits attribute fully");
    assert_eq!(
        compute_hits + sum(|r| r.compute_misses),
        pkg.cache_lookups,
        "compute lookups attribute fully"
    );
    assert_eq!(gate_hits, pkg.gate_cache_hits, "gate hits attribute fully");
    assert_eq!(
        gate_hits + sum(|r| r.gate_misses),
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
        initial + sum(|r| r.nodes_allocated) - sum(|r| r.nodes_freed),
        final_live
    );

    // Peak never decreases and dominates every live reading; the one walk
    // per op gives both the level profile and the node count.
    let mut prev_peak = 0;
    for r in &records {
        assert!(r.peak_nodes >= prev_peak, "peak is monotone");
        assert!(r.peak_nodes >= r.vec_nodes, "peak dominates live");
        prev_peak = r.peak_nodes;
        assert!(!r.levels.is_empty(), "level profile");
        let total: u64 = r.levels.iter().map(|&n| u64::from(n)).sum();
        assert_eq!(total, r.vec_nodes, "levels sum to the node count");
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
            let doc = timeline();
            telemetry::take_merged_snapshot();
            telemetry::set_scope(0);
            disarm();

            assert_eq!(
                report.histogram, baseline.histogram,
                "histogram diverged at {threads} threads with recording on"
            );
            assert_eq!(dropped, 0);
            assert!(!doc.ops.is_empty(), "workers recorded at {threads} threads");
            assert_eq!(doc.header.workers as usize, threads);

            // The merge is ordered by (worker, run), with op indices
            // increasing within each (worker, run) pass.
            let order: Vec<_> = doc
                .ops
                .iter()
                .map(|r| (r.worker, r.run, r.op_index))
                .collect();
            for pair in order.windows(2) {
                assert!(pair[1] > pair[0], "merge order violated: {pair:?}");
            }
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
    let doc = timeline();
    disarm();

    let expected = doc
        .ops
        .iter()
        .filter(|r| r.op_index.is_multiple_of(4))
        .count();
    assert_eq!(doc.snapshots.len(), expected, "one snapshot per stride hit");
    assert!(!doc.snapshots.is_empty());
    for s in &doc.snapshots {
        assert!(
            s.op_index.is_multiple_of(4),
            "snapshots land on stride boundaries"
        );
        assert_eq!(s.graph.kind, NodeKind::Vector);
        assert_eq!(s.graph.node_count() as u64, s.nodes);
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
