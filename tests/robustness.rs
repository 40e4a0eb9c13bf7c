//! Resource-governance and malformed-input robustness.
//!
//! The engine must fail *structurally* — typed errors, balanced stats,
//! graceful degradation — when driven past its budgets or fed garbage,
//! never by panicking or exhausting the host.

use qdd::circuit::{library, qasm, QuantumCircuit};
use qdd::complex::Complex;
use qdd::core::{
    gates, Control, DdError, DdPackage, Limits, PackageConfig, PauliString, ResourceKind,
};
use qdd::sim::{DdSimulator, SimError};
use qdd::verify::{EquivalenceChecker, Strategy, VerifyError};
use std::time::Duration;

fn limited(limits: Limits) -> PackageConfig {
    PackageConfig {
        limits,
        ..PackageConfig::default()
    }
}

/// Entangling layers with incommensurate rotation angles: the state has no
/// product structure, so its diagram grows exponentially in the register —
/// the adversarial workload for a node budget.
fn adversarial(n: usize, layers: usize) -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            qc.ry(0.37 + 0.11 * (layer * n + q) as f64, q);
        }
        for q in 0..n - 1 {
            qc.cx(q, q + 1);
        }
    }
    qc
}

#[test]
fn node_budget_yields_structured_error_with_balanced_stats() {
    // Register too wide for the dense fallback: the budget must surface as
    // a hard, typed error.
    let config = limited(Limits {
        max_nodes: Some(10_000),
        ..Limits::default()
    });
    qdd::telemetry::set_enabled(true);
    qdd::telemetry::reset();
    let mut sim = DdSimulator::with_config(adversarial(26, 3), 1, config);
    let err = sim.run().unwrap_err();
    let events = qdd::telemetry::drain_events();
    let pressure_events = qdd::telemetry::snapshot()
        .counter("core.gc.pressure_runs")
        .unwrap_or(0);
    qdd::telemetry::set_enabled(false);
    // The degradation left a telemetry trail: pressure-GC events on the
    // stream, matching the counter.
    assert!(
        events.iter().any(|e| e.name == "core.pressure_gc"),
        "pressure GC must emit a telemetry event"
    );
    assert!(pressure_events > 0, "pressure-run counter must advance");
    match err {
        SimError::Dd(DdError::ResourceExhausted { kind, limit, used }) => {
            assert_eq!(kind, ResourceKind::Nodes);
            assert_eq!(limit, 10_000);
            assert!(used >= limit, "reported usage {used} below limit {limit}");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert!(!sim.stats().dense_fallback, "26 qubits cannot fall back densely");

    // The package survives the failure with a consistent node ledger:
    // every live node occupies an allocated slot, and the pressure GCs
    // actually returned slots to the free list.
    let pkg = sim.package().stats();
    assert!(
        pkg.vnodes_alive <= pkg.vnodes_allocated,
        "vector ledger out of balance: {} alive > {} allocated",
        pkg.vnodes_alive,
        pkg.vnodes_allocated
    );
    assert!(
        pkg.mnodes_alive <= pkg.mnodes_allocated,
        "matrix ledger out of balance: {} alive > {} allocated",
        pkg.mnodes_alive,
        pkg.mnodes_allocated
    );
    assert!(pkg.gc_pressure_runs > 0, "pressure GC must have run");
    assert!(pkg.peak_live_nodes >= 10_000);
}

#[test]
fn deadline_fires_on_long_qft() {
    let config = limited(Limits {
        deadline: Some(Duration::from_millis(50)),
        ..Limits::default()
    });
    // QFT over a non-basis (H-prepared) input keeps every step busy.
    let mut qc = QuantumCircuit::new(22);
    for q in 0..22 {
        qc.ry(0.3 + 0.05 * q as f64, q);
    }
    let qft = library::qft(22, true);
    qc.extend(&qft);
    qdd::telemetry::set_enabled(true);
    qdd::telemetry::reset();
    let mut sim = DdSimulator::with_config(qc, 1, config);
    let start = std::time::Instant::now();
    let err = sim.run().unwrap_err();
    let events = qdd::telemetry::drain_events();
    qdd::telemetry::set_enabled(false);
    assert!(
        matches!(err, SimError::Dd(DdError::DeadlineExceeded { .. })),
        "expected DeadlineExceeded, got {err:?}"
    );
    assert!(
        events.iter().any(|e| e.name == "sim.deadline"),
        "deadline abort must emit a telemetry event"
    );
    // Generous ceiling: the point is that it aborted, not ran to completion.
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "deadline failed to cut the run short"
    );
}

#[test]
fn dense_fallback_preserves_semantics() {
    let circuit = adversarial(10, 3);
    let mut reference = DdSimulator::with_seed(circuit.clone(), 7);
    reference.run().unwrap();
    let expected = reference.dense_state();

    let config = limited(Limits {
        max_nodes: Some(32),
        ..Limits::default()
    });
    qdd::telemetry::set_enabled(true);
    qdd::telemetry::reset();
    let mut sim = DdSimulator::with_config(circuit, 7, config);
    sim.run().unwrap();
    let events = qdd::telemetry::drain_events();
    qdd::telemetry::set_enabled(false);
    assert!(sim.degraded_to_dense());
    assert!(sim.stats().dense_fallback);
    assert!(
        events.iter().any(|e| e.name == "sim.dense_fallback"),
        "dense fallback must emit a telemetry event"
    );
    for (a, b) in expected.iter().zip(sim.dense_state().iter()) {
        assert!(a.approx_eq(*b, 1e-9), "fallback diverged: {a:?} vs {b:?}");
    }
}

#[test]
fn default_limits_change_nothing() {
    assert!(Limits::default().is_unlimited());
    let mut plain = DdSimulator::with_seed(library::grover(8, 5), 3);
    let mut configured =
        DdSimulator::with_config(library::grover(8, 5), 3, limited(Limits::default()));
    plain.run().unwrap();
    configured.run().unwrap();
    assert_eq!(plain.stats(), configured.stats());
    assert_eq!(plain.package().stats(), configured.package().stats());
    for (a, b) in plain.dense_state().iter().zip(configured.dense_state().iter()) {
        assert!(a.approx_eq(*b, 1e-15));
    }
}

#[test]
fn verifier_respects_budgets() {
    let config = limited(Limits {
        max_nodes: Some(64),
        ..Limits::default()
    });
    let mut checker = EquivalenceChecker::with_config(config);
    let qft = library::qft(7, true);
    let err = checker
        .check(&qft, &qft, Strategy::Construction)
        .unwrap_err();
    assert!(matches!(
        err,
        VerifyError::Dd(DdError::ResourceExhausted { .. })
    ));
}

/// The full degradation ladder, stage by stage on the same adversarial
/// family, with the telemetry stream proving the rungs fire in order:
/// pressure GC → fidelity-bounded approximation → dense fallback → typed
/// error.
#[test]
fn degradation_ladder_fires_in_order() {
    // Stage A: approximation suffices. The run completes without dense
    // fallback, and the event stream shows pressure GC before the first
    // degrade.approximate.
    let config = limited(Limits {
        max_nodes: Some(160),
        min_fidelity: Some(0.5),
        ..Limits::default()
    });
    qdd::telemetry::set_enabled(true);
    qdd::telemetry::reset();
    let mut sim = DdSimulator::with_config(adversarial(8, 3), 1, config);
    sim.run().unwrap();
    let events = qdd::telemetry::drain_events();
    qdd::telemetry::set_enabled(false);
    assert!(!sim.degraded_to_dense(), "approximation must carry stage A");
    assert!(sim.stats().approx_rounds > 0);
    assert!(sim.stats().fidelity_lower_bound >= 0.5);
    let first_gc = events
        .iter()
        .position(|e| e.name == "core.pressure_gc")
        .expect("stage A must GC under pressure first");
    let first_approx = events
        .iter()
        .position(|e| e.name == "degrade.approximate")
        .expect("stage A must approximate");
    assert!(
        first_gc < first_approx,
        "GC rung must fire before approximation ({first_gc} vs {first_approx})"
    );
    assert!(
        !events.iter().any(|e| e.name == "sim.dense_fallback"),
        "stage A must not reach the dense rung"
    );

    // Stage B: the cap is so tight that even an approximated diagram cannot
    // fit, so the dense rung backs the approximation up — and its event
    // arrives after the approximation's.
    let config = limited(Limits {
        max_nodes: Some(96),
        min_fidelity: Some(0.5),
        ..Limits::default()
    });
    qdd::telemetry::set_enabled(true);
    qdd::telemetry::reset();
    let mut sim = DdSimulator::with_config(adversarial(8, 3), 1, config);
    sim.run().unwrap();
    let events = qdd::telemetry::drain_events();
    qdd::telemetry::set_enabled(false);
    assert!(sim.degraded_to_dense(), "stage B must exhaust into dense");
    let first_approx = events
        .iter()
        .position(|e| e.name == "degrade.approximate")
        .expect("stage B must attempt approximation before going dense");
    let dense = events
        .iter()
        .position(|e| e.name == "sim.dense_fallback")
        .expect("stage B must reach the dense rung");
    assert!(
        first_approx < dense,
        "approximation must precede dense fallback ({first_approx} vs {dense})"
    );

    // Stage C: too wide for the dense rung — the ladder runs out and the
    // typed error names the budget that tripped.
    let config = limited(Limits {
        max_nodes: Some(10_000),
        min_fidelity: Some(0.9),
        ..Limits::default()
    });
    let mut sim = DdSimulator::with_config(adversarial(26, 3), 1, config);
    let err = sim.run().unwrap_err();
    assert!(!sim.stats().dense_fallback, "26 qubits cannot go dense");
    let message = err.to_string();
    assert!(
        message.contains("max_nodes") && message.contains("10000"),
        "error must name the tripped budget and its limit: {message}"
    );
}

/// The dense rung refuses registers beyond its cap *before* allocating:
/// a 30-qubit run under node pressure gets the typed resource error
/// immediately instead of attempting a 2³⁰-amplitude vector.
#[test]
fn dense_cap_is_checked_before_allocation() {
    // The run must fail with the node-budget error — not hang on a dense
    // allocation, not report a dense fallback.
    let config = limited(Limits {
        max_nodes: Some(600),
        ..Limits::default()
    });
    let mut sim = DdSimulator::with_config(adversarial(30, 2), 1, config);
    let err = sim.run().unwrap_err();
    assert!(matches!(
        err,
        SimError::Dd(DdError::ResourceExhausted {
            kind: ResourceKind::Nodes,
            ..
        })
    ));
    assert!(!sim.stats().dense_fallback);
}

/// Every DD operation of the package returns a value or a typed error
/// under every node budget, never a panic. The operands are built on an
/// unlimited package; each call then runs on a clone of it with the
/// budget set, so the smallest budgets sit below the live operands.
#[test]
fn every_kernel_entry_is_a_value_or_a_typed_error_under_every_node_budget() {
    let mut base = DdPackage::new();
    let s = base
        .state_from_amplitudes(&[
            Complex::new(0.1, 0.2),
            Complex::real(0.3),
            Complex::new(-0.4, 0.1),
            Complex::real(0.2),
            Complex::new(0.0, 0.5),
            Complex::real(-0.3),
            Complex::new(0.2, -0.2),
            Complex::real(0.4),
        ])
        .unwrap();
    let t = base.basis_state(3, 0b101).unwrap();
    let h = base.gate_dd(gates::H, &[], 2, 3).unwrap();
    let cx = base.gate_dd(gates::X, &[Control::pos(2)], 0, 3).unwrap();
    let a = base.mat_mat(cx, h).unwrap();
    let b = base
        .gate_dd(gates::ry(0.7), &[Control::neg(0)], 1, 3)
        .unwrap();
    let xyz: PauliString = "XYZ".parse().unwrap();

    type Call<'a> = &'a dyn Fn(&mut DdPackage) -> Result<(), DdError>;
    let calls: [(&str, Call); 13] = [
        ("add_vec", &|dd| dd.add_vec(s, t).map(drop)),
        ("add_mat", &|dd| dd.add_mat(a, b).map(drop)),
        ("mat_vec", &|dd| dd.mat_vec(a, s).map(drop)),
        ("mat_mat", &|dd| dd.mat_mat(a, b).map(drop)),
        ("kron_vec", &|dd| dd.kron_vec(s, t).map(drop)),
        ("kron_mat", &|dd| dd.kron_mat(a, b, 3).map(drop)),
        ("adjoint_mat", &|dd| dd.adjoint_mat(a).map(drop)),
        ("inner_product", &|dd| dd.inner_product(s, t).map(drop)),
        ("make_vec_node", &|dd| dd.make_vec_node(3, [s, t]).map(drop)),
        ("make_mat_node", &|dd| {
            dd.make_mat_node(3, [a, b, b, a]).map(drop)
        }),
        ("expectation_value", &|dd| {
            dd.expectation_value(s, &xyz).map(drop)
        }),
        ("reduced_density_matrix", &|dd| {
            dd.reduced_density_matrix(s, 1).map(drop)
        }),
        ("bloch_vector", &|dd| dd.bloch_vector(s, 0).map(drop)),
    ];
    let mut refused = 0;
    for max_nodes in 1..=64 {
        for (name, call) in calls {
            let mut dd = base.clone();
            dd.set_limits(Limits {
                max_nodes: Some(max_nodes),
                ..Limits::default()
            });
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&mut dd)));
            match result {
                Ok(Ok(())) => {}
                Ok(Err(DdError::ResourceExhausted {
                    kind: ResourceKind::Nodes,
                    ..
                })) => {
                    refused += 1;
                    assert!(max_nodes < 64, "{name} refused the largest budget");
                }
                Ok(Err(e)) => panic!("{name} at max_nodes = {max_nodes}: untyped {e:?}"),
                Err(_) => panic!("{name} panicked at max_nodes = {max_nodes}"),
            }
        }
    }
    assert!(refused > 0, "no budget was small enough to refuse a call");
}

/// Malformed QASM must produce `Err`, never a panic. Each entry is run
/// under `catch_unwind` so a regression reports the offending source.
#[test]
fn malformed_qasm_corpus_never_panics() {
    let deep_parens = format!(
        "OPENQASM 2.0; qreg q[1]; rz({}pi{}) q[0];",
        "(".repeat(50_000),
        ")".repeat(50_000)
    );
    let corpus: Vec<String> = vec![
        String::new(),
        ";".into(),
        "OPENQASM".into(),
        "OPENQASM 3.0;".into(),
        "OPENQASM 2.0; qreg".into(),
        "OPENQASM 2.0; qreg q[0];".into(),
        "OPENQASM 2.0; qreg q[99999999999];".into(),
        "OPENQASM 2.0; qreg q[2]; qreg q[2];".into(),
        "OPENQASM 2.0; qreg q[2]; h q[5];".into(),
        "OPENQASM 2.0; qreg q[2]; cx q[0], q[0];".into(),
        "OPENQASM 2.0; qreg q[1]; rx() q[0];".into(),
        "OPENQASM 2.0; qreg q[1]; rx(1/0) q[0];".into(),
        "OPENQASM 2.0; qreg q[1]; rx(frob(1)) q[0];".into(),
        "OPENQASM 2.0; qreg q[1]; gate rec a { rec a; } rec q[0];".into(),
        "OPENQASM 2.0; qreg q[1]; gate a x { b x; } gate b x { a x; } a q[0];".into(),
        "OPENQASM 2.0; qreg q[1]; gate broken a {".into(),
        "OPENQASM 2.0; qreg q[1]; creg c[1]; if (c = 1) x q[0];".into(),
        "OPENQASM 2.0; qreg q[1]; creg c[1]; if (d == 1) x q[0];".into(),
        "OPENQASM 2.0; qreg q[1]; measure q[0] ->".into(),
        "OPENQASM 2.0; qreg q[2]; creg c[1]; measure q -> c;".into(),
        "OPENQASM 2.0; qreg q[1]; x q[0]".into(),
        "OPENQASM 2.0; qreg q[1]; \u{0} x q[0];".into(),
        "OPENQASM 2.0; include \"unterminated".into(),
        deep_parens,
        format!("OPENQASM 2.0; qreg q[1]; rz({}1) q[0];", "-".repeat(50_000)),
    ];
    for src in &corpus {
        let label: String = src.chars().take(60).collect();
        let result = std::panic::catch_unwind(|| qasm::parse(src));
        match result {
            Ok(parse_result) => assert!(
                parse_result.is_err(),
                "malformed source accepted: {label}"
            ),
            Err(_) => panic!("parser panicked on: {label}"),
        }
    }
}
