//! The rows `perfbench` cannot express, written to `BENCH_current.json` at
//! the repository root:
//!
//! ```text
//! cargo run --release -p qdd-bench --bin bench_suite
//! ```
//!
//! * `sim/<circuit>`: `circuits/{cliffordt15,qft16,grover12}.qasm` through
//!   `DdSimulator::run`, timed with recording off and with what
//!   `--trace-out --snapshot-stride 16` turns on (the per-op fields'
//!   overhead claim, DESIGN §17), plus the run's exact GC and
//!   complex-table counts. perfbench's states stay
//!   at n ≤ 9; these are the circuits where GC thrash shows.
//! * `teleport/<workers>`: mid-circuit shots per second of the shot engine
//!   on teleportation at 1 and 8 workers.
//! * `approx/<workload>`: the fidelity-bounded approximation rung at node
//!   caps that exhaust the exact engine (dense fallback off), with the
//!   certified bound it paid.
//!
//! Every row runs [`REPS`] times; each timed value is written as the median
//! and quartiles of those runs.

use qdd_bench::workloads::{self, Family};
use qdd_circuit::QuantumCircuit;
use qdd_sim::{DdSimulator, ShotOptions};
use std::path::PathBuf;
use std::time::Instant;

/// Repetitions per row.
const REPS: usize = 5;

/// Shots per teleportation row.
const TELEPORT_SHOTS: u64 = 20_000;

/// Wall time of one call of `work` in milliseconds, with its output. The
/// caller drops the output outside the timed region.
fn timed<T>(work: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = work();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// The 25th, 50th and 75th percentiles, interpolated linearly.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let pos = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    })
}

/// Median and quartiles as a JSON object.
fn spread(samples: &[f64]) -> String {
    let [p25, median, p75] = quartiles(samples);
    format!("{{\"median\": {median:.3}, \"p25\": {p25:.3}, \"p75\": {p75:.3}}}")
}

fn sim_row(name: &str) -> String {
    let path = repo_root().join(format!("circuits/{name}.qasm"));
    let src = std::fs::read_to_string(&path).expect("read pinned circuit");
    let circuit = qdd_circuit::qasm::parse(&src).expect("parse pinned circuit");
    let run = || {
        let mut sim = DdSimulator::with_seed(circuit.clone(), 1);
        sim.run().expect("simulation");
        sim
    };
    // Runs with recording off and on alternate, so drift in the host's
    // speed falls on both. "On" is what `--trace-out` with
    // `--snapshot-stride 16` turns on: telemetry plus the armed timeline.
    // Events are drained inside the timed region and dropped outside it
    // with the run's simulator.
    let (mut off, mut recorded, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..REPS {
        let (ms, sim) = timed(run);
        off.push(ms);
        last = Some(sim);
        qdd_telemetry::set_enabled(true);
        qdd_telemetry::reset();
        qdd_telemetry::set_timeline(Some(16));
        recorded.push(timed(|| (run(), qdd_telemetry::drain_events())).0);
        qdd_telemetry::set_timeline(None);
        qdd_telemetry::set_enabled(false);
    }
    qdd_telemetry::reset();
    let sim = last.expect("REPS > 0");
    let stats = sim.package().stats();
    let complex = sim.package().complex_table_stats();
    println!(
        "sim       {name:>16}  {:>9.1} ms  timeline {:>9.1} ms  {} GC runs",
        quartiles(&off)[1],
        quartiles(&recorded)[1],
        stats.gc_runs
    );
    format!(
        "{{\"row\": \"sim/{name}\", \"qubits\": {}, \"gates\": {}, \
         \"wall_ms\": {}, \"timeline_wall_ms\": {}, \"gc_runs\": {}, \
         \"complex_lookups\": {}, \"complex_hits\": {}, \"complex_reclaimed\": {}, \
         \"peak_live_nodes\": {}}}",
        circuit.num_qubits(),
        circuit.gate_count(),
        spread(&off),
        spread(&recorded),
        stats.gc_runs,
        complex.lookups,
        complex.hits,
        complex.reclaimed,
        stats.peak_live_nodes
    )
}

fn teleport_row(workers: usize) -> String {
    let circuit = qdd_circuit::library::teleportation(0.3);
    let mut opts = ShotOptions::new(TELEPORT_SHOTS, 1);
    opts.threads = workers;
    let per_s: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ms, report) = timed(|| qdd_sim::shots::run(&circuit, &opts).expect("shots"));
            assert_eq!(report.histogram.values().sum::<u64>(), TELEPORT_SHOTS);
            TELEPORT_SHOTS as f64 / (ms / 1e3)
        })
        .collect();
    println!(
        "teleport  {workers:>16}  {:>9.0} shots/s",
        quartiles(&per_s)[1]
    );
    format!(
        "{{\"row\": \"teleport/{workers}\", \"workers\": {workers}, \"shots\": {TELEPORT_SHOTS}, \
         \"shots_per_s\": {}}}",
        spread(&per_s)
    )
}

fn approx_row(name: &str, circuit: QuantumCircuit, cap: usize, floor: f64) -> String {
    let config = qdd_core::PackageConfig {
        limits: qdd_core::Limits {
            max_nodes: Some(cap),
            min_fidelity: Some(floor),
            ..qdd_core::Limits::default()
        },
        ..qdd_core::PackageConfig::default()
    };
    let mut last = None;
    let wall: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ms, sim) = timed(|| {
                let mut sim = DdSimulator::with_config(circuit.clone(), 1, config);
                sim.set_dense_fallback(false);
                sim.run()
                    .expect("approximation must complete this workload");
                sim
            });
            last = Some(sim);
            ms
        })
        .collect();
    let sim = last.expect("REPS > 0");
    let stats = sim.stats();
    assert!(
        stats.approx_rounds > 0,
        "{name}: the cap must actually trigger the approximation rung"
    );
    assert!(stats.fidelity_lower_bound >= floor);
    println!(
        "approx    {name:>16}  {:>9.1} ms  fidelity ≥ {:.4}, peak {} nodes",
        quartiles(&wall)[1],
        stats.fidelity_lower_bound,
        stats.peak_nodes
    );
    format!(
        "{{\"row\": \"approx/{name}\", \"qubits\": {}, \"node_cap\": {cap}, \"floor\": {floor}, \
         \"wall_ms\": {}, \"fidelity_lower_bound\": {:.9}, \"approx_rounds\": {}, \
         \"peak_nodes\": {}}}",
        circuit.num_qubits(),
        spread(&wall),
        stats.fidelity_lower_bound,
        stats.approx_rounds,
        stats.peak_nodes
    )
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("bench_suite takes no arguments");
        std::process::exit(2);
    }
    let mut rows = Vec::new();
    for name in ["cliffordt15", "qft16", "grover12"] {
        rows.push(sim_row(name));
    }
    for workers in [1, 8] {
        rows.push(teleport_row(workers));
    }
    // Caps are pinned where the exact engine exhausts (see
    // tests/robustness.rs and the CI approx-gating job).
    rows.push(approx_row(
        "random-entangled",
        workloads::random_entangled(8, 3),
        160,
        0.5,
    ));
    rows.push(approx_row(
        "clifford-t",
        Family::CliffordT.circuit(15),
        88_000,
        0.85,
    ));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"reps\": {REPS},\n  \"nproc\": {nproc},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    let path = repo_root().join("BENCH_current.json");
    std::fs::write(&path, json).expect("write BENCH_current.json");
    println!("wrote BENCH_current.json");
}
