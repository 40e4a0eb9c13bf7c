//! End-to-end verification scenarios across circuit families, strategies
//! and fault models.

use qdd::circuit::{compile, library, QuantumCircuit, StandardGate};
use qdd::verify::{simulate_equivalence, EquivalenceChecker, Strategy};

const STRATEGIES: [Strategy; 5] = [
    Strategy::Construction,
    Strategy::OneToOne,
    Strategy::Proportional,
    Strategy::BarrierGuided,
    Strategy::Lookahead,
];

#[test]
fn qft_compile_flow_verifies_at_multiple_sizes() {
    for n in 2..=6 {
        let qft = library::qft(n, true);
        let compiled = compile::compiled_qft(n);
        let mut checker = EquivalenceChecker::new();
        let report = checker.check(&qft, &compiled, Strategy::Proportional).unwrap();
        assert!(report.result.is_equivalent(), "qft({n}): {report}");
    }
}

#[test]
fn ccx_decomposition_verifies() {
    let mut original = QuantumCircuit::new(3);
    original.ccx(2, 1, 0);
    let options = compile::CompileOptions {
        decompose_ccx: true,
        ..compile::CompileOptions::default()
    };
    let decomposed = compile::compile(&original, options);
    assert!(decomposed.gate_count() > 10, "actually decomposed");
    let mut checker = EquivalenceChecker::new();
    let report = checker.check(&original, &decomposed, Strategy::Construction).unwrap();
    assert!(report.result.is_equivalent(), "{report}");
}

#[test]
fn inverse_concatenation_is_identity_for_all_library_circuits() {
    for circuit in [
        library::ghz(4),
        library::w_state(4),
        library::qft(4, true),
        library::bernstein_vazirani(3, 0b101),
        library::random_circuit(4, 10, 3),
    ] {
        let inv = circuit.inverse().unwrap();
        let mut composed = QuantumCircuit::new(circuit.num_qubits());
        composed.extend(&circuit);
        composed.extend(&inv);
        let identity = QuantumCircuit::new(circuit.num_qubits());
        let mut checker = EquivalenceChecker::new();
        let report = checker.check(&composed, &identity, Strategy::OneToOne).unwrap();
        assert!(report.result.is_equivalent(), "{}: {report}", circuit.name());
    }
}

#[test]
fn every_strategy_catches_every_single_gate_fault() {
    let base = library::qft(3, false);
    let faults: Vec<(&str, QuantumCircuit)> = vec![
        ("extra-x", {
            let mut c = base.clone();
            c.x(1);
            c
        }),
        ("extra-z", {
            let mut c = base.clone();
            c.z(0);
            c
        }),
        ("extra-t", {
            let mut c = base.clone();
            c.t(2);
            c
        }),
        ("swapped-qubits", {
            let mut c = base.clone();
            c.swap(0, 2);
            c
        }),
    ];
    for (name, faulty) in &faults {
        for strategy in STRATEGIES {
            let mut checker = EquivalenceChecker::new();
            let report = checker.check(&base, faulty, strategy).unwrap();
            assert!(
                !report.result.is_equivalent(),
                "{name} undetected by {strategy}"
            );
        }
    }
}

#[test]
fn commuting_rewrites_verify() {
    // Diagonal gates commute: T·S == S·T; CZ is symmetric in its qubits.
    let mut a = QuantumCircuit::new(2);
    a.t(0).s(0).cz(0, 1);
    let mut b = QuantumCircuit::new(2);
    b.s(0).t(0).cz(1, 0);
    let mut checker = EquivalenceChecker::new();
    let report = checker.check(&a, &b, Strategy::Construction).unwrap();
    assert!(report.result.is_equivalent());
}

#[test]
fn hadamard_conjugation_rewrites_verify() {
    // H X H = Z and H Z H = X.
    let mut a = QuantumCircuit::new(1);
    a.h(0).x(0).h(0);
    let mut b = QuantumCircuit::new(1);
    b.z(0);
    let mut checker = EquivalenceChecker::new();
    assert!(checker
        .check(&a, &b, Strategy::OneToOne)
        .unwrap()
        .result
        .is_equivalent());

    // CX direction flip under H conjugation on both qubits.
    let mut a = QuantumCircuit::new(2);
    a.h(0).h(1).cx(0, 1).h(0).h(1);
    let mut b = QuantumCircuit::new(2);
    b.cx(1, 0);
    let mut checker = EquivalenceChecker::new();
    assert!(checker
        .check(&a, &b, Strategy::Proportional)
        .unwrap()
        .result
        .is_equivalent());
}

/// Runs the construction check and random stimuli on one pair, asserts
/// that they agree, and returns the construction verdict.
fn verdicts_agree(a: &QuantumCircuit, b: &QuantumCircuit, seed: u64) -> bool {
    let mut checker = EquivalenceChecker::new();
    let exact = checker.check(a, b, Strategy::Construction).unwrap();
    let stimuli = simulate_equivalence(a, b, 12, seed).unwrap();
    // A global-phase-only difference could fool stimuli, but none of the
    // pairs below differ by a phase alone.
    assert_eq!(
        exact.result.is_equivalent(),
        stimuli.probably_equivalent,
        "{}: construction {:?} vs stimuli",
        a.name(),
        exact.result
    );
    exact.result.is_equivalent()
}

#[test]
fn stimuli_and_construction_agree_on_verdicts() {
    for seed in 0..6 {
        let a = library::random_circuit(4, 8, seed);
        let b = if seed % 2 == 0 {
            a.clone()
        } else {
            let mut c = a.clone();
            c.y(seed as usize % 4);
            c
        };
        verdicts_agree(&a, &b, seed);
    }
    // Clifford+T circuits against themselves and their optimized forms.
    // Canonicity makes these the identical edge in one package; seeds 7
    // and 9 at three qubits, depth 8, were judged NOT equivalent by a
    // construction that built the right side in a second package.
    for n in 3..=6 {
        for depth in [8, 16] {
            for seed in [1, 7, 9] {
                let a = library::random_clifford_t(n, depth, seed);
                let (optimized, _) = qdd::circuit::optimize::optimize(&a);
                for b in [&a, &optimized] {
                    assert!(
                        verdicts_agree(&a, b, seed),
                        "random_clifford_t({n}, {depth}, {seed}) judged NOT equivalent"
                    );
                }
            }
        }
    }
}

#[test]
fn peak_nodes_shrink_with_alternation_on_compiled_flows() {
    let (qft, compiled) = (library::qft(5, true), compile::compiled_qft(5));
    let mut checker = EquivalenceChecker::new();
    let construction = checker.check(&qft, &compiled, Strategy::Construction).unwrap();
    let mut checker = EquivalenceChecker::new();
    let proportional = checker.check(&qft, &compiled, Strategy::Proportional).unwrap();
    assert!(
        proportional.peak_nodes * 2 <= construction.peak_nodes,
        "alternating {} vs construction {}",
        proportional.peak_nodes,
        construction.peak_nodes
    );
}

#[test]
fn gate_order_fault_is_detected() {
    let mut a = QuantumCircuit::new(2);
    a.h(0).cx(0, 1);
    let mut b = QuantumCircuit::new(2);
    b.cx(0, 1).h(0); // reversed order — not equivalent
    let mut checker = EquivalenceChecker::new();
    let report = checker.check(&a, &b, Strategy::Construction).unwrap();
    assert!(!report.result.is_equivalent());
    assert!(report.counterexample.is_some());
}

#[test]
fn controlled_gate_polarity_fault_is_detected() {
    let mut a = QuantumCircuit::new(2);
    a.gate(StandardGate::X, vec![qdd::circuit::Control::pos(1)], 0);
    let mut b = QuantumCircuit::new(2);
    b.gate(StandardGate::X, vec![qdd::circuit::Control::neg(1)], 0);
    let mut checker = EquivalenceChecker::new();
    let report = checker.check(&a, &b, Strategy::OneToOne).unwrap();
    assert!(!report.result.is_equivalent());
}

#[test]
fn optimizer_output_verifies_against_original() {
    use qdd::circuit::optimize::optimize;
    for (name, circuit) in [
        ("qft", library::qft(4, true)),
        ("compiled_qft", compile::compiled_qft(4)),
        ("grover", library::grover(3, 5)),
        ("random", library::random_circuit(4, 15, 21)),
        ("redundant", {
            let mut qc = QuantumCircuit::new(3);
            qc.h(0).h(0).t(1).t(1).cx(0, 2).cx(0, 2).s(1).sdg(1).swap(0, 1).swap(1, 0);
            qc
        }),
    ] {
        let (optimized, stats) = optimize(&circuit);
        let mut checker = EquivalenceChecker::new();
        let report = checker
            .check(&circuit, &optimized, Strategy::Proportional)
            .unwrap();
        assert!(
            report.result.is_equivalent(),
            "{name}: optimization broke equivalence ({} removed): {report}",
            stats.total_removed()
        );
    }
}

#[test]
fn optimizer_collapses_circuit_times_inverse() {
    use qdd::circuit::optimize::optimize;
    // QFT followed by its inverse cancels gate by gate from the seam.
    let qft = library::qft(4, false);
    let mut composed = QuantumCircuit::new(4);
    composed.extend(&qft);
    composed.extend(&qft.inverse().unwrap());
    let (optimized, stats) = optimize(&composed);
    assert!(optimized.is_empty(), "{optimized}");
    assert_eq!(stats.total_removed(), composed.len());
}
