//! The execution-timeline recorder must observe, never perturb: with
//! recording on, amplitudes and shot histograms are bit-identical to a
//! recording-off run at every thread count, per-op cache-hit deltas sum to
//! the run-level package totals, and the disabled probe costs one branch.
//!
//! Timeline state is thread-local; each test owns its recorder (and clears
//! the process-wide published registry it touches).

use qdd::circuit::{library, Condition, QuantumCircuit, StandardGate};
use qdd::sim::{shots, DdSimulator, ShotOptions};
use qdd::telemetry::timeline;
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

// Neither helper touches the process-wide published registry: tests in
// this binary run concurrently, and only the shot test (which owns its
// workers) may drain or clear the global side.
fn arm(stride: u32) {
    timeline::set_enabled(true);
    timeline::reset();
    timeline::set_snapshot_stride(stride);
}

fn disarm() {
    timeline::set_enabled(false);
    timeline::reset();
}

#[test]
fn recording_is_bit_identical_to_off() {
    disarm();
    let plain = run(workload());

    arm(4);
    let recorded = run(workload());
    let (records, dropped) = timeline::drain();
    disarm();

    // Amplitudes must match to the bit, not merely to a tolerance: the
    // recorder reads engine counters, it must never touch the arithmetic.
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
    assert_eq!(records.len(), recorded.stats().applied_ops);
    assert_eq!(dropped, 0);
}

#[test]
fn per_op_deltas_sum_to_package_totals() {
    arm(0);
    let sim = run(workload());
    let (records, _) = timeline::drain();
    disarm();

    let pkg = sim.package().stats();
    let compute_hits: u64 = records.iter().map(|r| r.compute_hits).sum();
    let compute_misses: u64 = records.iter().map(|r| r.compute_misses).sum();
    let gate_hits: u64 = records.iter().map(|r| r.gate_hits).sum();
    let gate_misses: u64 = records.iter().map(|r| r.gate_misses).sum();

    // The deltas telescope: every lookup the package made happened inside
    // exactly one op's probe window (state preparation does none).
    assert_eq!(compute_hits, pkg.cache_hits, "compute hits attribute fully");
    assert_eq!(
        compute_hits + compute_misses,
        pkg.cache_lookups,
        "compute lookups attribute fully"
    );
    assert_eq!(gate_hits, pkg.gate_cache_hits, "gate hits attribute fully");
    assert_eq!(
        gate_hits + gate_misses,
        pkg.gate_cache_lookups,
        "gate lookups attribute fully"
    );

    // Node accounting balances: births minus frees across all op windows
    // telescopes to the net growth of the package's live population (the
    // windows are contiguous — nothing touches the package between ops).
    let allocated: u64 = records.iter().map(|r| r.nodes_allocated).sum();
    let freed: u64 = records.iter().map(|r| r.nodes_freed).sum();
    let initial = DdSimulator::with_seed(workload(), 7)
        .package()
        .live_node_estimate() as u64;
    let final_live = sim.package().live_node_estimate() as u64;
    assert_eq!(initial + allocated - freed, final_live);

    // Peak never decreases and dominates every live reading.
    let mut prev_peak = 0;
    for r in &records {
        assert!(r.peak_nodes >= prev_peak, "peak is monotone");
        assert!(r.peak_nodes >= r.vec_nodes, "peak dominates live");
        prev_peak = r.peak_nodes;
    }
}

#[test]
fn shot_histograms_match_off_run_at_every_thread_count() {
    let circuit = mid_circuit_workload();
    disarm();
    timeline::reset_published();
    let mut baseline_opts = ShotOptions::new(96, 5);
    baseline_opts.threads = 1;
    let baseline = shots::run(&circuit, &baseline_opts).expect("baseline shots");

    for threads in [1usize, 2, 4] {
        arm(0);
        let mut opts = ShotOptions::new(96, 5);
        opts.threads = threads;
        let report = shots::run(&circuit, &opts).expect("recorded shots");
        let (records, dropped) = timeline::merged_drain();
        disarm();

        assert_eq!(
            report.histogram, baseline.histogram,
            "histogram diverged at {threads} threads with recording on"
        );
        assert_eq!(dropped, 0);
        assert!(!records.is_empty(), "workers recorded at {threads} threads");

        // The merge is deterministic: sorted by (worker, run, seq), with
        // op indices monotonic within each (worker, run) pass.
        let mut prev: Option<(u32, u32, u64, u64)> = None;
        for r in &records {
            let key = (r.worker, r.run, r.seq, r.op_index);
            if let Some(p) = prev {
                assert!(key > p, "merge order violated: {p:?} then {key:?}");
                if p.0 == r.worker && p.1 == r.run {
                    assert!(r.op_index > p.3, "op_index not monotonic in a run");
                }
            }
            prev = Some(key);
        }
    }
}

#[test]
fn snapshot_stride_captures_every_kth_op() {
    arm(4);
    let sim = run(workload());
    let (records, _) = timeline::drain();
    disarm();

    let with_snapshot: Vec<_> = records.iter().filter(|r| r.snapshot.is_some()).collect();
    let expected = records.iter().filter(|r| r.op_index % 4 == 0).count();
    assert_eq!(with_snapshot.len(), expected, "one snapshot per stride hit");
    assert!(!with_snapshot.is_empty());
    for r in &with_snapshot {
        assert_eq!(r.op_index % 4, 0, "snapshots land on stride boundaries");
        let graph = r.snapshot.as_ref().unwrap();
        assert!(graph.starts_with("{\"kind\":\"vector\""), "inline graph JSON");
    }
    drop(sim);
}

#[test]
fn disabled_probe_costs_a_branch() {
    disarm();

    // Ten million disabled probes: the cost is a thread-local read and a
    // branch. The bound leaves generous headroom for slow CI machines while
    // still catching an accidental clock read, counter read, or allocation
    // on the disabled path.
    const N: u64 = 10_000_000;
    let t0 = Instant::now();
    let mut armed = 0u64;
    for _ in 0..N {
        if timeline::enabled() {
            armed += 1;
        }
    }
    let elapsed = t0.elapsed();
    assert_eq!(armed, 0);
    assert!(
        elapsed.as_millis() < 2_000,
        "disabled timeline probe too slow: {N} probes took {elapsed:?}"
    );

    // And a full simulation with the recorder off leaves no trace.
    let _ = run(workload());
    let (records, dropped) = timeline::drain();
    assert!(records.is_empty());
    assert_eq!(dropped, 0);
}
