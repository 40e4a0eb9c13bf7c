//! Every worked example of the reproduced paper, as an executable test.
//!
//! Example numbers refer to *Visualizing Decision Diagrams for Quantum
//! Computing* (Wille, Burgholzer, Artner; DATE 2021).

use qdd::circuit::{compile, library, QuantumCircuit};
use qdd::complex::Complex;
use qdd::core::{gates, Control, DdPackage, MeasurementOutcome};
use qdd::sim::{DdSimulator, StepOutcome, SteppableSimulation};
use qdd::verify::{functionality, EquivalenceChecker, Strategy};
use std::f64::consts::FRAC_1_SQRT_2;

fn bell_state(dd: &mut DdPackage) -> qdd::core::VecEdge {
    let z = dd.zero_state(2).unwrap();
    let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
    dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap()
}

/// Example 1: 1/√2 [1,0,0,1]ᵀ is a valid state with |α₀₀|² + |α₁₁|² = 1.
#[test]
fn example_1_bell_state_vector() {
    let mut dd = DdPackage::new();
    let b = bell_state(&mut dd);
    let amps = dd.to_dense_vector(b, 2);
    assert!(amps[0].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
    assert!(amps[3].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
    let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
    assert!((norm - 1.0).abs() < 1e-12);
    // Entanglement: the state is not a tensor product — the two q0
    // sub-vectors under the root are different nodes.
    let root = dd.vnode(b.node);
    assert_ne!(root.children[0].node, root.children[1].node);
}

/// Example 2: measuring one qubit yields |0⟩/|1⟩ with 50% each, and the
/// other qubit is then fully determined.
#[test]
fn example_2_measurement_statistics() {
    let mut dd = DdPackage::new();
    let b = bell_state(&mut dd);
    let (p0, p1) = dd.qubit_probabilities(b, 0);
    assert!((p0 - 0.5).abs() < 1e-12 && (p1 - 0.5).abs() < 1e-12);
    for outcome in [MeasurementOutcome::Zero, MeasurementOutcome::One] {
        let collapsed = dd.collapse(b, 0, outcome).unwrap();
        let (q1_p0, q1_p1) = dd.qubit_probabilities(collapsed, 1);
        if outcome.as_bool() {
            assert!((q1_p1 - 1.0).abs() < 1e-12);
        } else {
            assert!((q1_p0 - 1.0).abs() < 1e-12);
        }
    }
}

/// Example 3: (H ⊗ I₂)|00⟩ = 1/√2 [1,0,1,0]ᵀ.
#[test]
fn example_3_hadamard_on_msb() {
    let mut dd = DdPackage::new();
    let z = dd.zero_state(2).unwrap();
    let s = dd.apply_gate(z, gates::H, &[], 1).unwrap();
    let amps = dd.to_dense_vector(s, 2);
    assert!(amps[0].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
    assert!(amps[2].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
    assert!(amps[1].approx_eq(Complex::ZERO, 1e-12));
    assert!(amps[3].approx_eq(Complex::ZERO, 1e-12));
}

/// Example 4: the CNOT fires iff the control is |1⟩.
#[test]
fn example_4_cnot_semantics() {
    let mut dd = DdPackage::new();
    for (input, expected) in [(0b00u64, 0b00u64), (0b01, 0b01), (0b10, 0b11), (0b11, 0b10)] {
        let s = dd.basis_state(2, input).unwrap();
        let out = dd.apply_gate(s, gates::X, &[Control::pos(1)], 0).unwrap();
        let want = dd.basis_state(2, expected).unwrap();
        assert_eq!(out, want, "CNOT |{input:02b}⟩");
    }
}

/// Example 5: the two-gate evolution |00⟩ → Bell state.
#[test]
fn example_5_bell_evolution() {
    let mut sim = DdSimulator::with_seed(library::bell(), 1);
    sim.run().unwrap();
    let amps = sim.dense_state();
    assert!(amps[0].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
    assert!(amps[3].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
}

/// Example 6: the Bell-state diagram has 3 nodes (terminal not counted)
/// and both encoded paths reconstruct amplitude 1/√2.
#[test]
fn example_6_bell_diagram() {
    let mut dd = DdPackage::new();
    let amps = [
        Complex::real(FRAC_1_SQRT_2),
        Complex::ZERO,
        Complex::ZERO,
        Complex::real(FRAC_1_SQRT_2),
    ];
    let e = dd.state_from_amplitudes(&amps).unwrap();
    assert_eq!(dd.vec_node_count(e), 3);
    assert!(dd.amplitude(e, 0b00).approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
    assert!(dd.amplitude(e, 0b11).approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
    // And it is the same canonical diagram the circuit evolution builds.
    let via_circuit = bell_state(&mut dd);
    assert_eq!(e, via_circuit);
}

/// Example 7: H is a single matrix node; CNOT has the Fig. 2(c) block
/// structure with both off-diagonal blocks as 0-stubs.
#[test]
fn example_7_gate_diagrams() {
    let mut dd = DdPackage::new();
    let h = dd.gate_dd(gates::H, &[], 0, 1).unwrap();
    assert_eq!(dd.mat_node_count(h), 1);
    let cx = dd.gate_dd(gates::X, &[Control::pos(1)], 0, 2).unwrap();
    let root = dd.mnode(cx.node);
    assert!(root.children[1].is_zero());
    assert!(root.children[2].is_zero());
    assert!(!root.children[0].is_zero());
    assert!(!root.children[3].is_zero());
}

/// Example 8 / Fig. 3: H ⊗ I₂ by terminal replacement.
#[test]
fn example_8_tensor_product() {
    let mut dd = DdPackage::new();
    let h = dd.gate_dd(gates::H, &[], 0, 1).unwrap();
    let i2 = dd.identity(1).unwrap();
    // Identity skip makes I₂ a nodeless terminal edge; its one-level span
    // must be stated for the tensor product to shift H past it.
    let kron = dd.kron_mat(h, i2, 1).unwrap();
    let direct = dd.gate_dd(gates::H, &[], 1, 2).unwrap();
    assert_eq!(kron, direct);
}

/// Example 9 / Fig. 4: matrix–vector multiplication decomposes block-wise
/// and matches the dense computation.
#[test]
fn example_9_multiplication() {
    let mut dd = DdPackage::new();
    let u = dd.gate_dd(gates::t(), &[Control::pos(0)], 1, 2).unwrap();
    let amps = [
        Complex::new(0.5, 0.0),
        Complex::new(0.0, 0.5),
        Complex::new(-0.5, 0.0),
        Complex::new(0.0, -0.5),
    ];
    let v = dd.state_from_amplitudes(&amps).unwrap();
    let product = dd.mat_vec(u, v).unwrap();
    let dense_u = dd.to_dense_matrix(u, 2);
    let dense_v = dd.to_dense_vector(v, 2);
    let dense_p = dd.to_dense_vector(product, 2);
    for i in 0..4 {
        let mut want = Complex::ZERO;
        for j in 0..4 {
            want += dense_u[i][j] * dense_v[j];
        }
        assert!(dense_p[i].approx_eq(want, 1e-12), "component {i}");
    }
}

/// Example 10 / Fig. 5: the QFT functionality is 1/√8 · [ω^{jk}] with
/// ω = e^{iπ/4} = √i.
#[test]
fn example_10_qft_functionality() {
    let mut dd = DdPackage::new();
    let (u, _) = functionality(&mut dd, &library::qft(3, true)).unwrap();
    let omega = Complex::cis(std::f64::consts::FRAC_PI_4);
    assert!(omega.approx_eq(Complex::I.sqrt(), 1e-12), "ω = √i");
    let dense = dd.to_dense_matrix(u, 3);
    let scale = 1.0 / (8.0f64).sqrt();
    for (j, row) in dense.iter().enumerate() {
        for (k, &entry) in row.iter().enumerate() {
            let want = Complex::cis(std::f64::consts::FRAC_PI_4 * ((j * k) % 8) as f64) * scale;
            assert!(entry.approx_eq(want, 1e-9), "entry ({j},{k})");
        }
    }
}

/// Example 11: both QFT versions construct the *identical* canonical
/// diagram — equivalence by root comparison.
#[test]
fn example_11_canonicity() {
    let mut dd = DdPackage::new();
    let (u1, _) = functionality(&mut dd, &library::qft(3, true)).unwrap();
    let (u2, _) = functionality(&mut dd, &compile::compiled_qft(3)).unwrap();
    assert_eq!(u1, u2, "same edge, same diagram");
    // The paper's size for this diagram: 21 nodes.
    assert_eq!(dd.mat_node_count(u1), 21);
}

/// Example 12: the alternating check needs at most 9 nodes, vs 21 for the
/// full system matrix.
#[test]
fn example_12_advanced_equivalence_checking() {
    let qft = library::qft(3, true);
    let compiled = compile::compiled_qft(3);
    let mut checker = EquivalenceChecker::new();
    let full = checker.check(&qft, &compiled, Strategy::Construction).unwrap();
    let mut checker = EquivalenceChecker::new();
    let alt = checker.check(&qft, &compiled, Strategy::BarrierGuided).unwrap();
    assert!(full.result.is_equivalent());
    assert!(alt.result.is_equivalent());
    assert_eq!(full.peak_nodes, 21);
    assert!(alt.peak_nodes <= 9, "peak {}", alt.peak_nodes);
}

/// Example 13 / Fig. 8: the interactive simulation walk-through.
#[test]
fn example_13_simulation_session() {
    let mut qc = library::bell();
    qc.add_creg("c", 1);
    qc.measure(0, 0);
    let mut s = SteppableSimulation::new(qc);
    s.step_forward().unwrap();
    s.step_forward().unwrap();
    match s.step_forward().unwrap() {
        StepOutcome::NeedsChoice(p) => {
            assert!((p.p0 - 0.5).abs() < 1e-12);
        }
        other => panic!("expected dialog, got {other:?}"),
    }
    s.choose(MeasurementOutcome::One).unwrap();
    let amps = s.package().to_dense_vector(s.state(), 2);
    assert!(amps[0b11].abs() > 0.999);
}

/// Example 14: building the QFT functionality in the left algorithm box
/// yields the Fig. 6 diagram.
#[test]
fn example_14_functionality_construction() {
    use qdd::viz::{style::VizStyle, VerificationExplorer};
    let qft = library::qft(3, true);
    let empty = QuantumCircuit::new(3);
    let mut ex = VerificationExplorer::new(&qft, &empty, VizStyle::colored()).unwrap();
    while ex.apply_left().unwrap() {}
    assert_eq!(ex.package().mat_node_count(ex.matrix()), 21, "Fig. 6 diagram");
}

/// Example 15 / Fig. 9: stepping both circuits keeps the working diagram
/// near the identity throughout.
#[test]
fn example_15_verification_session() {
    use qdd::viz::{style::VizStyle, VerificationExplorer};
    let qft = library::qft(3, true);
    let compiled = compile::compiled_qft(3);
    let mut ex = VerificationExplorer::new(&qft, &compiled, VizStyle::colored()).unwrap();
    let equivalent = ex.run_barrier_guided().unwrap();
    assert!(equivalent);
    assert!(ex.peak_nodes() <= 9);
    // "Close to the identity throughout": every intermediate diagram stays
    // tiny compared to the 21-node functionality.
    assert!(ex.frames().iter().all(|f| f.node_count <= 9));
}
