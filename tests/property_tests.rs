//! Property-based tests of the core decision-diagram invariants, driven
//! through the whole stack with `proptest`.

use proptest::prelude::*;
use qdd::circuit::{QuantumCircuit, StandardGate};
use qdd::complex::Complex;
use qdd::core::{Control, DdPackage};
use qdd::sim::{DdSimulator, DenseSimulator};
use qdd::verify::{EquivalenceChecker, Strategy as EcStrategy};

/// Strategy: a random amplitude vector over `n` qubits (not normalized).
fn amplitudes(n: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1 << n)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
        .prop_filter("norm must not vanish", |v: &Vec<Complex>| {
            v.iter().map(|a| a.norm_sqr()).sum::<f64>() > 1e-6
        })
}

/// Strategy: a random small circuit description.
fn small_circuit() -> impl Strategy<Value = QuantumCircuit> {
    let gate = prop_oneof![
        Just(0usize),
        Just(1),
        Just(2),
        Just(3),
        Just(4),
        Just(5)
    ];
    prop::collection::vec((gate, 0usize..4, 0usize..4, -3.0f64..3.0), 1..25).prop_map(|ops| {
        let mut qc = QuantumCircuit::new(4);
        for (kind, a, b, theta) in ops {
            match kind {
                0 => {
                    qc.h(a);
                }
                1 => {
                    qc.t(a);
                }
                2 => {
                    qc.rx(theta, a);
                }
                3 => {
                    qc.rz(theta, a);
                }
                4 if a != b => {
                    qc.cx(a, b);
                }
                5 if a != b => {
                    qc.cp(theta, a, b);
                }
                _ => {
                    qc.x(a);
                }
            }
        }
        qc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: dense → DD → dense reproduces amplitudes up to the
    /// global normalization.
    #[test]
    fn dd_dense_round_trip(amps in amplitudes(3)) {
        let mut dd = DdPackage::new();
        let e = dd.state_from_amplitudes(&amps).unwrap();
        let back = dd.to_dense_vector(e, 3);
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for (orig, got) in amps.iter().zip(back.iter()) {
            prop_assert!(got.approx_eq(*orig / norm, 1e-9));
        }
    }

    /// Canonicity: building the same function twice yields the same edge.
    #[test]
    fn canonicity_of_state_construction(amps in amplitudes(3)) {
        let mut dd = DdPackage::new();
        let a = dd.state_from_amplitudes(&amps).unwrap();
        let b = dd.state_from_amplitudes(&amps).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Scale invariance: a scaled amplitude vector yields the same node
    /// with a scaled root weight.
    #[test]
    fn canonicity_under_scaling(amps in amplitudes(3), scale in 0.1f64..5.0, phase in 0.0f64..std::f64::consts::TAU) {
        let mut dd = DdPackage::new();
        let a = dd.state_from_amplitudes(&amps).unwrap();
        let factor = Complex::from_polar(scale, phase);
        let scaled: Vec<Complex> = amps.iter().map(|&v| v * factor).collect();
        let b = dd.state_from_amplitudes(&scaled).unwrap();
        // state_from_amplitudes normalizes, so only the phase remains.
        prop_assert_eq!(a.node, b.node);
        let wa = dd.complex_value(a.weight);
        let wb = dd.complex_value(b.weight);
        prop_assert!((wa.abs() - wb.abs()).abs() < 1e-9);
    }

    /// Unitarity: every circuit keeps states normalized.
    #[test]
    fn circuits_preserve_norm(qc in small_circuit()) {
        let mut sim = DdSimulator::with_seed(qc, 1);
        sim.run().unwrap();
        let state = sim.state();
        let norm = sim.package_mut().vec_norm(state).unwrap();
        prop_assert!((norm - 1.0).abs() < 1e-8);
    }

    /// Soundness: the DD simulator agrees with the dense baseline on
    /// arbitrary circuits.
    #[test]
    fn dd_matches_dense_on_random_circuits(qc in small_circuit()) {
        let mut dd_sim = DdSimulator::with_seed(qc.clone(), 1);
        dd_sim.run().unwrap();
        let dd_state = dd_sim.dense_state();
        let dense = DenseSimulator::simulate(&qc, 1).unwrap();
        for (a, b) in dd_state.iter().zip(dense.state().iter()) {
            prop_assert!(a.approx_eq(*b, 1e-8));
        }
    }

    /// Self-equivalence: every circuit verifies against itself, under the
    /// cheapest and the most involved strategy.
    #[test]
    fn self_equivalence(qc in small_circuit()) {
        let mut checker = EquivalenceChecker::new();
        let report = checker.check(&qc, &qc, EcStrategy::OneToOne).unwrap();
        prop_assert!(report.result.is_equivalent());
    }

    /// Inverse property: appending the inverse yields the identity.
    #[test]
    fn inverse_gives_identity(qc in small_circuit()) {
        let inv = qc.inverse().unwrap();
        let mut composed = QuantumCircuit::new(qc.num_qubits());
        composed.extend(&qc);
        composed.extend(&inv);
        let identity = QuantumCircuit::new(qc.num_qubits());
        let mut checker = EquivalenceChecker::new();
        let report = checker.check(&composed, &identity, EcStrategy::Proportional).unwrap();
        prop_assert!(report.result.is_equivalent());
    }

    /// Measurement probabilities always form a distribution.
    #[test]
    fn probabilities_sum_to_one(qc in small_circuit(), qubit in 0usize..4) {
        let mut sim = DdSimulator::with_seed(qc, 1);
        sim.run().unwrap();
        let state = sim.state();
        let (p0, p1) = sim.package_mut().qubit_probabilities(state, qubit);
        prop_assert!((p0 + p1 - 1.0).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&p0));
    }

    /// Collapse is a projection: collapsing twice to the same outcome is
    /// the same as collapsing once.
    #[test]
    fn collapse_is_idempotent(qc in small_circuit(), qubit in 0usize..4) {
        let mut sim = DdSimulator::with_seed(qc, 1);
        sim.run().unwrap();
        let state = sim.state();
        let dd = sim.package_mut();
        let (p0, _) = dd.qubit_probabilities(state, qubit);
        let outcome = qdd::core::MeasurementOutcome::from(p0 < 0.5);
        if let Ok(once) = dd.collapse(state, qubit, outcome) {
            let twice = dd.collapse(once, qubit, outcome).unwrap();
            prop_assert_eq!(once, twice);
        }
    }

    /// Inner products are bounded by Cauchy–Schwarz.
    #[test]
    fn inner_product_bounded(a in amplitudes(3), b in amplitudes(3)) {
        let mut dd = DdPackage::new();
        let ea = dd.state_from_amplitudes(&a).unwrap();
        let eb = dd.state_from_amplitudes(&b).unwrap();
        let ip = dd.inner_product(ea, eb).unwrap();
        prop_assert!(ip.abs() <= 1.0 + 1e-9);
        // ⟨a|a⟩ is real 1 after normalization.
        let aa = dd.inner_product(ea, ea).unwrap();
        prop_assert!(aa.approx_eq(Complex::ONE, 1e-9));
    }

    /// Kron dimension/content law on states.
    #[test]
    fn kron_matches_dense_tensor(a in amplitudes(2), b in amplitudes(2)) {
        let mut dd = DdPackage::new();
        let ea = dd.state_from_amplitudes(&a).unwrap();
        let eb = dd.state_from_amplitudes(&b).unwrap();
        let prod = dd.kron_vec(ea, eb).unwrap();
        let da = dd.to_dense_vector(ea, 2);
        let db = dd.to_dense_vector(eb, 2);
        let dp = dd.to_dense_vector(prod, 4);
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!(dp[i * 4 + j].approx_eq(da[i] * db[j], 1e-9));
            }
        }
    }
}

/// A non-proptest spot check that the controlled-gate builder agrees with
/// the dense controlled construction for every standard gate.
#[test]
fn controlled_gates_match_dense_for_standard_set() {
    let gates_to_test = [
        StandardGate::H,
        StandardGate::X,
        StandardGate::Y,
        StandardGate::Z,
        StandardGate::S,
        StandardGate::T,
        StandardGate::Sx,
        StandardGate::Phase(0.77),
        StandardGate::Rx(1.3),
        StandardGate::Ry(-0.6),
        StandardGate::Rz(2.2),
        StandardGate::U(0.4, 1.0, -1.5),
    ];
    let mut dd = DdPackage::new();
    for gate in gates_to_test {
        let g = dd
            .gate_dd(gate.matrix(), &[Control::pos(1)], 0, 2)
            .unwrap();
        let dense = dd.to_dense_matrix(g, 2);
        let u = gate.matrix();
        for r in 0..4 {
            for c in 0..4 {
                let want = if r < 2 && c < 2 {
                    // control |0⟩ block: identity
                    if r == c { Complex::ONE } else { Complex::ZERO }
                } else if r >= 2 && c >= 2 {
                    u[r - 2][c - 2]
                } else {
                    Complex::ZERO
                };
                assert!(
                    dense[r][c].approx_eq(want, 1e-12),
                    "{gate:?} entry ({r},{c})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serialization format round trip: QASM emitted by `to_qasm` reparses
    /// to a circuit with the same semantics.
    #[test]
    fn qasm_round_trip_preserves_semantics(qc in small_circuit()) {
        let text = qc.to_qasm();
        let reparsed = qdd::circuit::qasm::parse(&text).unwrap();
        let mut a = DdSimulator::with_seed(qc, 1);
        a.run().unwrap();
        let mut b = DdSimulator::with_seed(reparsed, 1);
        b.run().unwrap();
        for (x, y) in a.dense_state().iter().zip(b.dense_state().iter()) {
            prop_assert!(x.approx_eq(*y, 1e-9));
        }
    }

    /// Diagram serialization round trip on arbitrary circuit states.
    #[test]
    fn dd_serialization_round_trip(qc in small_circuit()) {
        let mut sim = DdSimulator::with_seed(qc.clone(), 1);
        sim.run().unwrap();
        let mut buffer = Vec::new();
        sim.package().write_vector(sim.state(), &mut buffer).unwrap();
        let mut fresh = DdPackage::new();
        let loaded = fresh.read_vector(buffer.as_slice()).unwrap();
        let a = sim.dense_state();
        let b = fresh.to_dense_vector(loaded, qc.num_qubits());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!(x.approx_eq(*y, 1e-9));
        }
    }

    /// Approximation soundness: the reported fidelity lower bound never
    /// exceeds the exact overlap `|⟨ψ|ψ̃⟩|²` (computed independently via
    /// the DD inner product), honors the requested floor, and the pruned
    /// state comes back normalized.
    #[test]
    fn pruning_bound_is_sound(amps in amplitudes(4), floor in 0.3f64..0.999) {
        let mut dd = DdPackage::new();
        let state = dd.state_from_amplitudes(&amps).unwrap();
        let (pruned, report) = dd.prune_to_fidelity(state, floor).unwrap();
        let exact = dd.fidelity(state, pruned).unwrap();
        prop_assert!(
            report.fidelity_lower_bound <= exact + 1e-9,
            "bound {} exceeds exact fidelity {exact}",
            report.fidelity_lower_bound
        );
        prop_assert!(
            report.fidelity_lower_bound >= floor - 1e-12,
            "bound {} broke the floor {floor}",
            report.fidelity_lower_bound
        );
        let norm = dd.vec_norm(pruned).unwrap();
        prop_assert!((norm - 1.0).abs() < 1e-9, "pruned norm {norm}");
    }

    /// A fidelity floor of exactly 1.0 is a bit-identical no-op: same edge,
    /// zero rounds, nothing removed.
    #[test]
    fn full_fidelity_floor_is_identity(amps in amplitudes(4)) {
        let mut dd = DdPackage::new();
        let state = dd.state_from_amplitudes(&amps).unwrap();
        let (pruned, report) = dd.prune_to_fidelity(state, 1.0).unwrap();
        prop_assert_eq!(pruned, state);
        prop_assert_eq!(report.rounds, 0);
        prop_assert_eq!(report.fidelity_lower_bound, 1.0);
    }

    /// Threshold contraction reports the same kind of sound bound whenever
    /// it leaves a nonzero state behind.
    #[test]
    fn threshold_bound_is_sound(amps in amplitudes(4), eps in 1e-6f64..0.05) {
        let mut dd = DdPackage::new();
        let state = dd.state_from_amplitudes(&amps).unwrap();
        if let Ok((pruned, report)) = dd.contract_threshold(state, eps) {
            let exact = dd.fidelity(state, pruned).unwrap();
            prop_assert!(
                report.fidelity_lower_bound <= exact + 1e-9,
                "bound {} exceeds exact fidelity {exact}",
                report.fidelity_lower_bound
            );
            let norm = dd.vec_norm(pruned).unwrap();
            prop_assert!((norm - 1.0).abs() < 1e-9, "pruned norm {norm}");
        }
    }

    /// The optimizer never changes semantics (dense-state comparison,
    /// complementing the EC-based integration test).
    #[test]
    fn optimizer_preserves_semantics(qc in small_circuit()) {
        let (optimized, _) = qdd::circuit::optimize::optimize(&qc);
        let mut a = DdSimulator::with_seed(qc, 1);
        a.run().unwrap();
        if optimized.is_empty() {
            // Optimized to identity: the original must act as identity on |0…0⟩.
            prop_assert!((a.amplitude(0).abs() - 1.0).abs() < 1e-9);
        } else {
            let mut b = DdSimulator::with_seed(optimized, 1);
            b.run().unwrap();
            for (x, y) in a.dense_state().iter().zip(b.dense_state().iter()) {
                prop_assert!(x.approx_eq(*y, 1e-9));
            }
        }
    }
}
