//! Telemetry must observe, never perturb: recording on or off, the engine
//! computes bit-identical results, and the disabled instrumentation costs
//! a single branch on the hot path.
//!
//! Telemetry state is thread-local, so each test owns its collector.

use qdd::circuit::{library, QuantumCircuit};
use qdd::sim::DdSimulator;
use qdd::telemetry;
use std::time::Instant;

/// A GHZ preparation followed by rotation layers: entangling enough to
/// exercise every operation family (gate cache, add, multiply, measure-free
/// traversal) while staying exactly reproducible.
fn workload() -> QuantumCircuit {
    let mut qc = library::ghz(12);
    for q in 0..12 {
        qc.ry(0.21 + 0.07 * q as f64, q);
    }
    for q in 0..11 {
        qc.cx(q, q + 1);
    }
    qc
}

fn run(circuit: QuantumCircuit) -> DdSimulator {
    let mut sim = DdSimulator::with_seed(circuit, 11);
    sim.run().expect("simulation");
    sim
}

#[test]
fn enabled_telemetry_is_bit_identical_to_disabled() {
    telemetry::set_enabled(false);
    let plain = run(workload());

    telemetry::set_enabled(true);
    telemetry::reset();
    let traced = run(workload());
    telemetry::set_enabled(false);

    // Amplitudes must match to the bit, not merely to a tolerance:
    // telemetry reads state, it must never touch the arithmetic.
    let a = plain.dense_state();
    let b = traced.dense_state();
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "amplitude {i} diverged: {x:?} vs {y:?}"
        );
    }
    assert_eq!(plain.node_count(), traced.node_count());
    assert_eq!(plain.stats(), traced.stats());
    assert_eq!(plain.package().stats(), traced.package().stats());
}

#[test]
fn enabled_run_records_the_expected_shape() {
    telemetry::set_enabled(true);
    telemetry::reset();
    let sim = run(workload());
    let snapshot = telemetry::snapshot();
    let events = telemetry::drain_events();
    telemetry::set_enabled(false);

    // One apply_gate span per gate, one sim.run span overall.
    let gates = sim.circuit().gate_count() as u64;
    let apply = snapshot.span_stats("core.apply_gate").expect("apply spans");
    assert_eq!(apply.count, gates);
    assert_eq!(snapshot.span_stats("sim.run").expect("run span").count, 1);

    // The package published its end-of-run gauges.
    assert!(snapshot.gauge("core.nodes.peak_live").unwrap_or(0.0) > 0.0);
    assert!(snapshot.gauge("core.compute.lookups").unwrap_or(0.0) > 0.0);

    // Every operation produced a `sim.op` event, none were dropped.
    let ops = events.iter().filter(|e| e.name == "sim.op").count();
    assert_eq!(ops as u64, gates, "one sim.op event per gate");
    assert_eq!(snapshot.dropped_events, 0);
}

#[test]
fn worker_threads_publish_into_the_merged_snapshot() {
    // A scope of its own: workers also publish their events, which the
    // other tests' drains must not pick up.
    telemetry::set_scope(telemetry::next_scope_id());
    telemetry::set_enabled(true);
    telemetry::reset();

    // A mid-circuit-measurement circuit forces the per-shot re-execution
    // regime, which fans out over worker threads.
    let mut qc = QuantumCircuit::new(3);
    let c = qc.add_creg("c", 2);
    qc.h(0).measure(0, 0);
    qc.gate_if(
        qdd::circuit::StandardGate::X,
        vec![],
        1,
        qdd::circuit::Condition { creg: c, value: 1 },
    );
    qc.h(2).cx(2, 1).measure(2, 1);

    let shots = 64;
    let mut opts = qdd::sim::ShotOptions::new(shots, 5);
    opts.threads = 4;
    let report = qdd::sim::shots::run(&qc, &opts).expect("shot run");
    assert_eq!(report.threads_used, 4);

    // Four outcome paths over four workers: each worker executes each path
    // at most once and replays its other shots from its outcome trie.
    assert!(
        report.executed_shots < shots,
        "{} of {shots} shots executed: nothing was replayed",
        report.executed_shots
    );

    // Workers record into their own thread-local registries and publish on
    // exit; the coordinating thread's local snapshot therefore has no
    // per-shot spans, but the merged snapshot accounts for every executed
    // shot on every worker.
    let local = telemetry::snapshot();
    let merged = telemetry::take_merged_snapshot();
    telemetry::set_scope(0);
    telemetry::set_enabled(false);
    telemetry::reset();

    assert!(local.span_stats("sim.run").is_none(), "shots run on workers");
    let runs = merged.span_stats("sim.run").expect("published run spans");
    assert_eq!(
        runs.count, report.executed_shots,
        "one sim.run span per executed shot, all threads"
    );
    assert_eq!(
        merged.counter("shots.executed"),
        Some(report.executed_shots)
    );
    // Merged spans fold across workers: totals add, max is the global max.
    assert!(runs.total_ns >= runs.max_ns);
    // The coordinator's own recording (the shot-engine span) is still
    // present in the merged view.
    assert_eq!(merged.span_stats("shots.engine").expect("engine span").count, 1);
}

#[test]
fn disabled_hot_path_costs_a_branch() {
    telemetry::set_enabled(false);
    telemetry::reset();

    // Ten million disabled probes. The real per-call cost is a thread-local
    // read and a branch (~1 ns); the bound leaves two orders of magnitude
    // of headroom for slow CI machines while still catching an accidental
    // clock read or allocation on the disabled path.
    const N: u64 = 10_000_000;
    let t0 = Instant::now();
    for i in 0..N {
        let _span = telemetry::span("overhead.probe");
        telemetry::counter_add("overhead.count", i & 1);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed.as_millis() < 2_000,
        "disabled telemetry too slow: {N} probes took {elapsed:?}"
    );

    // And nothing was recorded.
    let snapshot = telemetry::snapshot();
    assert!(snapshot.counters.is_empty());
    assert!(snapshot.spans.is_empty());
    assert!(telemetry::drain_events().is_empty());
}
